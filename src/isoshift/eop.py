"""Exceptional Laguerre polynomials and eigenfunctions of the extended potentials.

Three series arise from the radial-oscillator branches: L1 (branch 2),
L2 (branch 3, equivalently the L1 construction at ell -> ell+1) and L3
(branch 1).  Each state is psi(r) = r^p exp(-omega r^2/4) S(y)/T(y) at
y = omega r^2/2, with S the exceptional polynomial, T the seed polynomial of
the underlying deformation, and the orthogonality measure W^2 dr where
W = r^p exp(-omega r^2/4)/T(y) = exp(-int w) for the ground-state-like
superpotential w of the extension.

Polynomial values and their derivatives are carried as "jets", tuples
(value, d/dy, ..., d^k/dy^k) combined by product- and quotient-rule
arithmetic, so that every eigenfunction carries analytic first and second
derivatives.  Each Laguerre factor is one call of polyengine.laguerre_jet,
whose blocked, differentiated recurrence yields a polynomial and all its
derivatives in one pass.  The seed T enters an eigenfunction three times:
in S, as the denominator and, for L1, through its contiguous partner
B_m = L_m^(alpha+1)(-y).  It is evaluated once per point set, to one order
above the eigenfunction's, and every factor is taken from that jet:
B_m = T + dT/dy (DLMF 18.9.14 with 18.9.23 at x = -y), so B_m costs no
kernel call.  L_n and L_n' come from one call too, so a state costs two
kernel calls whatever the order.  An eigenfunction's f, df and d2f evaluate
to orders 0, 1 and 2, and its `jet` returns all three from one order-2
evaluation.  The S = 1 weight evaluates T only to its own order.  On a 1-D
r longer than polyengine._BLOCK points, an eigenfunction or weight jet runs
block by block into one preallocated output (catalog._blockwise): the
kernel calls, the product, quotient and chain rules, r^p and the Gaussian
then make block-sized temporaries only, and the rows are bitwise those of
one pass.

Gram matrices are integrated in y, where W^2 dr is a constant times
y^(p-1/2) e^(-y) / T(y)^2 dy, up to the cut omega r_cut^2/2.  One composite
Gauss rule serves every entry: T is evaluated once at all nodes and shared
by every S_n and the weight, each S_n is evaluated once there, and
G = P diag(w e^(-y)/T^2) P^T.  The first panel [0, h0] is Gauss-Jacobi with
the weight y^(p-1/2); the panels after it double in width and are
Gauss-Legendre.  A panel that disagrees with the sum over its two halves is
split, and the summed disagreement of the accepted panels is the Gram's
error estimate.  Both rules come from _gauss_jacobi, in numpy, cached per
exponent, so the module loads no scipy: scipy.integrate loads only when
weight_from_superpotential first integrates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import polyengine as pe
from .catalog import Function1D, RadialOscillator, _blockwise, _chain, _rows
from .errors import (
    ConfigurationError,
    DegenerateParameterError,
    QuadratureError,
    SingularExtensionError,
    check_index,
)

__all__ = [
    "EOPSpec",
    "WeightSpec",
    "eop_eval",
    "eop_polynomial_degree",
    "weight_spec",
    "weight_from_superpotential",
    "intertwine",
    "eigenfunction_closed_form",
    "eigenvalue",
    "ro_psi_plus",
    "classical_ro_eigenfunction",
    "gram_matrix",
    "gram_offdiag_max",
    "zero_census",
    "series_branch",
]

_SERIES = ("L1", "L2", "L3")

# which superpotential branch each series extends
_SERIES_BRANCH = {s: k for k, s in RadialOscillator.exceptional_series.items()}

# composite Gauss rule of the Gram matrices: nodes per panel, width in y of
# the first panel, panel acceptance tolerance, and the refinement cap
_GRAM_ORDER = 20
_GRAM_H0 = 0.25
_GRAM_TOL = 1e-13
_GRAM_MAX_NODES = 20_000


def series_branch(series: str) -> int:
    """Radial-oscillator branch index underlying an exceptional series."""
    if series not in _SERIES:
        raise ConfigurationError(f"unknown series {series!r}")
    return _SERIES_BRANCH[series]


@dataclass(frozen=True)
class EOPSpec:
    """One exceptional-polynomial state: series, state index n, hierarchy m."""

    series: str
    n: int
    m: int
    params: RadialOscillator

    def __post_init__(self):
        if self.series not in _SERIES:
            raise ConfigurationError(f"series must be one of {_SERIES}, got {self.series!r}")
        check_index(self.n, "state index n")
        check_index(self.m, "hierarchy index m")
        if not isinstance(self.params, RadialOscillator):
            raise ConfigurationError(
                "exceptional series are defined for the radial oscillator only, "
                f"got {type(self.params).__name__}"
            )


@dataclass(frozen=True)
class WeightSpec:
    """Half-density weight W(r) of a series; the orthogonality measure is W^2 dr."""

    series: str
    m: int
    params: RadialOscillator
    weight: Function1D
    interval: tuple
    singular_points: tuple

    @property
    def is_regular(self):
        return not self.singular_points


# ---------------------------------------------------------------------------
# jets: tuples (f, f', ..., f^(order)) of arrays, order <= 2 after products
# ---------------------------------------------------------------------------


def _jsub(a, b):
    return tuple(u - v for u, v in zip(a, b))


def _jmul(a, b):
    """Leibniz product of two jets of the same order (at most 2)."""
    out = [a[0] * b[0]]
    if len(a) > 1:
        out.append(a[0] * b[1] + a[1] * b[0])
    if len(a) > 2:
        out.append(a[0] * b[2] + 2.0 * a[1] * b[1] + a[2] * b[0])
    return tuple(out)


def _jdiv(a, b):
    """Quotient a/b of two jets of the same order (at most 2)."""
    g0 = a[0] / b[0]
    out = [g0]
    if len(a) > 1:
        g1 = (a[1] - g0 * b[1]) / b[0]
        out.append(g1)
    if len(a) > 2:
        out.append((a[2] - 2.0 * g1 * b[1] - g0 * b[2]) / b[0])
    return tuple(out)


def _lagjet(n, alpha, sign, y, order):
    """Jet in y, up to `order`, of y -> L_n^alpha(sign * y), from one kernel call."""
    y = np.asarray(y, dtype=float)
    if sign > 0:
        return pe.laguerre_jet(pe.LaguerreSpec(n, alpha), y, order)
    jet = pe.laguerre_jet(pe.LaguerreSpec(n, alpha), -y, order)
    if not y.ndim:  # the kernel returns floats for a scalar
        return tuple(-v if j % 2 else v for j, v in enumerate(jet))
    # the rows are the kernel's fresh output: odd ones change sign in place
    for v in jet[1::2]:
        np.negative(v, out=v)
    return jet


# ---------------------------------------------------------------------------
# series definitions: T(y, order) and S(y, T, order) return jets in y, S
# from the seed's jet T to order + 1
# ---------------------------------------------------------------------------


def _operational(spec: EOPSpec):
    """Map an L2 state to the equivalent L1 state at ell -> ell + 1."""
    if spec.series == "L2":
        return EOPSpec("L1", spec.n, spec.m, spec.params.tau())
    return spec


def _l1_S(n, alpha, y, T, order):
    """S = B_m L_n - U_m L_n' with U_m = T = L_m^alpha(-y) the seed,
    B_m = L_m^(alpha+1)(-y) = T + dT/dy and L_n = L_n^alpha(y)."""
    # L_n and L_n' come from one jet of order + 1, B_m from the seed's jet
    # (made after the kernel call, so that it is not live during it)
    Ln = _lagjet(n, alpha, 1, y, order + 1)
    Bm = tuple(u + v for u, v in zip(T[:-1], T[1:]))
    return _jsub(_jmul(Bm, Ln[:-1]), _jmul(T[:-1], Ln[1:]))


def _l3_S(n, alpha, y, G, order):
    """S = (y + alpha) L_n G + y W with the Wronskian W = L_n G' - L_n' G,
    G = T = L_m^alpha(-y) the seed and L_n = L_n^(-alpha)(y)."""
    # L_n and L_n' come from one jet of order + 1; the L_n' G' terms of W'
    # cancel, so W' = L_n G'' - L_n'' G
    y = np.asarray(y, dtype=float)
    L = _lagjet(n, -alpha, 1, y, order + 1)
    LG = _jmul(L[:-1], G[:-1])
    # the product rule against the linear factors y + alpha and y, whose
    # first derivative is 1 and second 0
    ya = y + alpha
    W = L[0] * G[1] - L[1] * G[0]
    S = [ya * LG[0] + y * W]
    if order > 0:
        W1 = L[0] * G[2] - L[2] * G[0]
        S.append(ya * LG[1] + LG[0] + (y * W1 + W))
    if order > 1:
        W2 = L[1] * G[2] + L[0] * G[3] - L[3] * G[0] - L[2] * G[1]
        S.append(ya * LG[2] + 2.0 * LG[1] + (y * W2 + 2.0 * W1))
    return tuple(S)


def _series_data(spec: EOPSpec):
    """(S jet fn, T jet fn, prefactor power p, eigenvalue E, denominator seed, family).

    T is the seed of the series' branch, L_m^alpha(s y) with (alpha, s) as
    family.seed gives them; s = -1 for both series.  S(y, T(y, order + 1),
    order) is the jet of S to `order`."""
    op = _operational(spec)
    fam = op.params
    w, ell = fam.omega, fam.ell
    branch = fam.branches()[_SERIES_BRANCH[op.series] - 1]
    seed, s, _ = fam.seed(branch.a, branch.b, op.m)
    T = partial(_lagjet, seed.n, seed.alpha, s)
    p = ell + 1.0
    if op.series == "L1":
        S = partial(_l1_S, op.n, seed.alpha)
        E = (2.0 * op.n + 2.0 * op.m + 2.0 * ell + 1.0) * w
    else:  # L3
        S = partial(_l3_S, op.n, seed.alpha)
        E = 2.0 * (op.n + op.m + 1.0) * w
    return S, T, p, E, (seed, s), fam


def eop_polynomial_degree(spec: EOPSpec) -> int:
    """Degree in y of the exceptional polynomial of a state."""
    if spec.series == "L3":
        return spec.n + spec.m + 1
    return spec.n + spec.m


def eop_eval(spec: EOPSpec, r):
    """The exceptional polynomial of a state, evaluated at radius r.

    L1 and L3 evaluate the certified closed forms used by the
    eigenfunctions.  L2 evaluates the traditional printed series with its
    1/(ell - m + 1/2) prefactor, undefined when ell - m + 1/2 = 0.
    """
    scalar = np.ndim(r) == 0
    r = np.asarray(r, dtype=float)
    y = 0.5 * spec.params.omega * r * r
    if spec.series == "L2":
        ell, n, m = spec.params.ell, spec.n, spec.m
        c = ell - m + 0.5
        if abs(c) < 1e-12:
            raise DegenerateParameterError(
                f"L2 series undefined at ell - m + 1/2 = 0 (ell={ell}, m={m})"
            )
        Ln, dLn = pe.laguerre_jet(pe.LaguerreSpec(n, ell + 0.5), y, 1)
        term1 = c * pe.laguerre_eval(pe.LaguerreSpec(m, -ell - 1.5), y) * Ln
        term2 = y * pe.laguerre_eval(pe.LaguerreSpec(m, -ell - 0.5), y) * dLn
        out = (term1 + term2) / c
    else:
        S, T = _series_data(spec)[:2]
        out = S(y, T(y, 1), 0)[0]
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


def _quotient(S, T, y, order):
    """The jet of S/T, from one jet of T to order + 1 shared by S and the
    denominator."""
    Tj = T(y, order + 1)
    return _jdiv(S(y, Tj, order), Tj[:-1])


def _reciprocal(T, y, order):
    """The jet of 1/T, from T to `order` only."""
    return _jdiv((1.0, 0.0, 0.0)[: order + 1], T(y, order))


def _product_function(omega, p, ratio, singular):
    """r^p exp(-omega r^2/4) g(y) with analytic first two derivatives, where
    ratio(y, order) is the jet of g in y: S/T, S alone (T = 1) or 1/T.

    f, df and d2f each evaluate the jet only to their own order; `jet(r,
    order=2)` gives the rows up to `order` from one evaluation, block by
    block on a long 1-D r (catalog._blockwise).
    """

    @_blockwise
    def jet(r, order=2):
        r = np.asarray(r, dtype=float)
        y = 0.5 * omega * r * r
        g = ratio(y, order)
        # through y = omega r^2/2, with y' = omega r and y'' = omega
        wr = omega * r
        F = _chain(g, wr, omega)
        A = [r**p * np.exp(-0.25 * omega * r * r)]
        if order > 0:
            la = p / r - 0.5 * wr
            A.append(la * A[0])
        if order > 1:
            A.append((la * la - p / r**2 - 0.5 * omega) * A[0])
        return _jmul(A, F)

    return Function1D(
        f=lambda r: jet(r, 0)[0],
        df=lambda r: jet(r, 1)[1],
        d2f=lambda r: jet(r, 2)[2],
        domain=(0.0, math.inf),
        singular_points=tuple(singular),
        jet=jet,
    )


def eigenfunction_closed_form(spec: EOPSpec) -> Function1D:
    """Closed-form eigenfunction of the extended potential for this state."""
    S, T, p, _, denom, fam = _series_data(spec)
    singular = fam.seed_zeros(*denom)
    return _product_function(fam.omega, p, partial(_quotient, S, T), singular)


def eigenvalue(spec: EOPSpec) -> float:
    """Energy of the state in the extended potential V~- of its branch."""
    return _series_data(spec)[3]


def ro_psi_plus(spec: EOPSpec) -> Function1D:
    """Eigenfunction of the shifted partner V~+ = V+ + R for this state.

    V~+ is a plain radial oscillator, so these are classical states,
    r^p exp(-omega r^2/4) L_n^(p-1/2)(y); they feed the intertwining
    operator, which maps them onto the closed forms.  The energy is
    eigenvalue(spec).
    """
    op = _operational(spec)
    fam = op.params
    if op.series == "L1":
        p, alpha = fam.ell, fam.ell - 0.5
    else:  # L3
        p, alpha = fam.ell + 2.0, fam.ell + 1.5
    return _product_function(fam.omega, p, partial(_lagjet, op.n, alpha, 1), ())


def classical_ro_eigenfunction(fam: RadialOscillator, n) -> Function1D:
    """Classical bound state r^(ell+1) exp(-omega r^2/4) L_n^(ell+1/2)(y).

    Eigenfunction of V- of branch 1 (V - omega(ell + 3/2)) at E = 2 n omega.
    """
    S = partial(_lagjet, n, fam.ell + 0.5, 1)
    return _product_function(fam.omega, fam.ell + 1.0, S, ())


def intertwine(w_tilde: Function1D, psi_plus: Function1D) -> Function1D:
    """Apply the first-order intertwiner (-d/dr + w~) to a partner state;
    each call reads the rows of psi_plus and w~ once (catalog._rows)."""
    has_d2 = psi_plus.d2f is not None and w_tilde.df is not None

    def f(r):
        p, dp = _rows(psi_plus, r, 1)
        return -dp + w_tilde.f(r) * p

    def df(r):
        p, dp, d2p = _rows(psi_plus, r, 2)
        w, dw = _rows(w_tilde, r, 1)
        return -d2p + dw * p + w * dp

    return Function1D(
        f=f,
        df=df if has_d2 else None,
        domain=psi_plus.domain,
        singular_points=w_tilde.singular_points,
    )


# ---------------------------------------------------------------------------
# weights and Gram matrices
# ---------------------------------------------------------------------------


def weight_spec(series: str, m: int, params: RadialOscillator) -> WeightSpec:
    """The half-density weight of a series: r^p exp(-omega r^2/4)/T(y), with
    analytic df and d2f and a `jet`."""
    _, T, p, _, denom, fam = _series_data(EOPSpec(series, 0, m, params))
    singular = tuple(fam.seed_zeros(*denom))
    weight = _product_function(fam.omega, p, partial(_reciprocal, T), singular)
    return WeightSpec(
        series=series,
        m=m,
        params=params,
        weight=weight,
        interval=(0.0, math.inf),
        singular_points=singular,
    )


def weight_from_superpotential(w_tilde: Function1D, anchor: float) -> Function1D:
    """exp(-int_anchor^x w~ dt) by adaptive quadrature; the operational weight.

    Unique up to an overall constant (the choice of anchor).  The quadrature
    is the module attribute `quad`, scipy.integrate's, loaded on first use
    (see __getattr__); it is looked up at each call, so a replacement bound
    to eop.quad is the one used.
    """
    module = sys.modules[__name__]

    def one(x):
        val, _ = module.quad(lambda t: float(w_tilde.f(t)), anchor, x, limit=200)
        return math.exp(-val)

    def f(x):
        if np.ndim(x) == 0:
            return one(float(x))
        return np.array([one(float(xi)) for xi in np.asarray(x, dtype=float)])

    def df(x):
        return -w_tilde.f(x) * f(x)

    return Function1D(f=f, df=df, domain=w_tilde.domain,
                      singular_points=w_tilde.singular_points)


def __getattr__(name):
    """`quad` on first access: importing scipy.integrate loads most of scipy,
    and only weight_from_superpotential integrates this way."""
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad

    globals()["quad"] = quad
    return quad


@lru_cache(maxsize=16)
def _gauss_jacobi(n, a, b):
    """n-point Gauss rule for the weight (1-x)^a (1+x)^b on (-1, 1).

    The nodes are the eigenvalues of the n x n Jacobi matrix of the
    orthonormal Jacobi polynomials p_k (Golub and Welsch, Math. Comp. 23
    (1969) 221), polished by one Newton step on p_n from the three-term
    recurrence; the weights are Christoffel's, 1 / sum_{k<n} p_k(x)^2
    (Hale and Townsend, SIAM J. Sci. Comput. 35 (2013) A652), that sum
    moved to the polished nodes to first order.  Legendre is a = b = 0.  The
    rules are cached, so their arrays are read-only.
    """
    k = np.arange(1.0, n + 1.0)
    s = 2.0 * k + a + b
    diag = np.concatenate((
        [(b - a) / (a + b + 2.0)], (b * b - a * a) / (s[:-1] * (s[:-1] + 2.0))
    ))
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    # the weight's integral, int (1-x)^a (1+x)^b dx
    mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
    mu0 /= math.gamma(a + b + 2.0)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))

    # rows p_k(x) and p_k'(x), and the sums of p_k^2 and p_k p_k' over k < n
    prev, cur, sums = np.zeros((2, n)), np.zeros((2, n)), np.zeros((2, n))
    cur[0] = 1.0 / math.sqrt(mu0)
    lower = 0.0
    for alpha, beta in zip(diag.tolist(), off.tolist()):
        sums += cur[0] * cur
        nxt = (x - alpha) * cur - lower * prev
        nxt[1] += cur[0]
        nxt /= beta
        prev, cur, lower = cur, nxt, beta
    step = cur[0] / cur[1]
    x -= step
    w = 1.0 / (sums[0] - 2.0 * step * sums[1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_rules(a, b, c):
    """Nodes and weights, shape (panels, q), of int_a^b y^c f(y) dy per panel.

    Panels starting at y = 0 use Gauss-Jacobi with the weight y^c, which is
    not smooth at y = 0; the others use Gauss-Legendre.
    """
    x, wx = _gauss_jacobi(_GRAM_ORDER, 0.0, 0.0)
    half = 0.5 * (b - a)[:, None]
    y = 0.5 * (a + b)[:, None] + half * x
    w = half * wx * y**c
    first = a == 0.0
    if np.any(first):
        xj, wj = _gauss_jacobi(_GRAM_ORDER, 0.0, c)
        y[first] = half[first] * (1.0 + xj)
        w[first] = half[first] ** (c + 1.0) * wj
    return y, w


def _gram_with_error(series: str, m: int, params: RadialOscillator, n_max: int,
                     singular_points=None):
    """(G, err): the Gram matrix and its quadrature error estimate.

    singular_points, when given, are the seed zeros of the series'
    deformation (from seed_polynomial of its branch), which then are not
    scanned again; None scans them as weight_spec does.

    In y = omega r^2/2 the measure W^2 dr is
    (2/omega)^p (2 omega)^(-1/2) y^(p-1/2) e^(-y) / T(y)^2 dy.  The range
    (0, omega r_cut^2/2) is cut into the Gauss-Jacobi panel [0, h0] and the
    Gauss-Legendre panels [h0 2^k, h0 2^(k+1)].  Every panel is compared with
    the sum over its two halves; panels that disagree by more than
    _GRAM_TOL (normalized like gram_offdiag_max) are split and redone, and G
    sums the halves of the accepted panels.  err is the largest entry of the
    summed |halves - whole| of those panels, normalized the same way.
    """
    check_index(n_max, "n_max")
    if singular_points is None:
        singular_points = weight_spec(series, m, params).singular_points
    if singular_points:
        raise SingularExtensionError(
            f"{series} extension with m={m} is singular; Gram matrix undefined",
            points=singular_points,
        )
    omega = params.omega
    r_cut = max(10.0, 8.0 / math.sqrt(omega)) * (1.0 + math.sqrt(n_max + m))
    y_cut = 0.5 * omega * r_cut * r_cut

    _, T, p, _, _, _ = _series_data(EOPSpec(series, 0, m, params))
    polys = [_series_data(EOPSpec(series, n, m, params))[0] for n in range(n_max + 1)]
    c = p - 0.5

    edges = [0.0, _GRAM_H0]
    while edges[-1] < y_cut:
        edges.append(min(2.0 * edges[-1], y_cut))
    a, b = np.array(edges[:-1]), np.array(edges[1:])

    size = n_max + 1
    G = np.zeros((size, size))
    err = np.zeros((size, size))
    nodes = 0
    while a.size:
        k = a.size
        nodes += 3 * k * _GRAM_ORDER
        if nodes > _GRAM_MAX_NODES:
            raise QuadratureError(
                f"{series} m={m} Gram matrix did not converge within "
                f"{_GRAM_MAX_NODES} quadrature nodes"
            )
        mid = 0.5 * (a + b)
        # rows: each panel whole, then its left halves, then its right halves
        y, w = _panel_rules(np.concatenate([a, a, mid]), np.concatenate([b, mid, b]), c)
        # one seed jet per node set, shared by the weight and every S_n
        Tj = T(y, 1)
        w = w * np.exp(-y) / Tj[0] ** 2
        P = np.stack([S(y, Tj, 0)[0] for S in polys])
        parts = np.einsum("ikq,jkq->kij", P * w, P)
        whole, halves = parts[:k], parts[k : 2 * k] + parts[2 * k :]
        diff = np.abs(halves - whole)
        d = np.sqrt(np.diag(G + halves.sum(axis=0)))
        # written so that a NaN panel is never accepted
        bad = ~(np.max(diff / np.outer(d, d), axis=(1, 2)) <= _GRAM_TOL)
        G += halves[~bad].sum(axis=0)
        err += diff[~bad].sum(axis=0)
        a, b = np.concatenate([a[bad], mid[bad]]), np.concatenate([mid[bad], b[bad]])

    d = np.sqrt(np.diag(G))
    scale = (2.0 / omega) ** p / math.sqrt(2.0 * omega)
    return scale * G, float(np.max(err / np.outer(d, d)))


def gram_matrix(series: str, m: int, params: RadialOscillator, n_max: int):
    """Gram matrix G[n, n'] = int P_n P_n' W^2 dr over (0, r_cut).

    Refuses singular extensions.  The cut r_cut follows the Gaussian decay
    of W^2; the truncated tail is below 1e-12 of the diagonal scale for the
    ranges certified here.  The integral is one vectorized composite Gauss
    rule in y = omega r^2/2, refined panel by panel until each panel agrees
    with its two halves to 1e-13 of sqrt(G_nn G_n'n'); see _gram_with_error,
    which also returns that error estimate.  Raises QuadratureError when the
    refinement would exceed _GRAM_MAX_NODES nodes.
    """
    return _gram_with_error(series, m, params, n_max)[0]


def gram_offdiag_max(G):
    """Largest |G_nn'| / sqrt(G_nn G_n'n') over n != n'."""
    d = np.sqrt(np.diag(G))
    normed = G / np.outer(d, d)
    off = normed - np.diag(np.diag(normed))
    return float(np.max(np.abs(off))) if G.shape[0] > 1 else 0.0


def zero_census(spec: EOPSpec):
    """(inside, outside) zero counts of the exceptional polynomial.

    `inside` counts real zeros with y > 0 (i.e. r in (0, inf)) by dense sign
    scan, counting sign changes only (a sample that evaluates to 0 has no
    sign); `outside` is the remaining degree count (real negative plus
    complex zeros).
    """
    op = _operational(spec)
    S, T = _series_data(op)[:2]
    deg = eop_polynomial_degree(spec)
    y_hi = 10.0 + 6.0 * (op.n + op.m + 2.0)
    n_samples = max(64 * (deg + 1), 256)
    ys = np.linspace(1e-9, y_hi, n_samples)
    poly = lambda y: S(y, T(y, 1), 0)[0]
    # only the count is used, so the brackets are not refined
    inside = len(pe.sign_change_zeros(poly, ys, poly(ys), 0.0, math.inf).crossings)
    return inside, deg - inside

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
derivatives in one pass; S and T take the order they must reach, so a
value costs an order-0 jet (order 1 for the factors whose derivative enters
S), and L_n and L_n' come from the same call.  An eigenfunction's f, df and
d2f evaluate to orders 0, 1 and 2, and its `jet` returns all three from one
order-2 evaluation.

Gram matrices are integrated in y, where W^2 dr is a constant times
y^(p-1/2) e^(-y) / T(y)^2 dy, up to the cut omega r_cut^2/2.  One composite
Gauss rule serves every entry: each S_n is evaluated once at all nodes and
G = P diag(w e^(-y)/T^2) P^T.  The first panel [0, h0] is Gauss-Jacobi with
the weight y^(p-1/2); the panels after it double in width and are
Gauss-Legendre.  A panel that disagrees with the sum over its two halves is
split, and the summed disagreement of the accepted panels is the Gram's
error estimate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from . import polyengine as pe
from .catalog import Function1D, RadialOscillator
from .errors import (
    ConfigurationError,
    DegenerateParameterError,
    QuadratureError,
    SingularExtensionError,
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
    "psi_plus_eigenvalue",
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
        if self.n < 0 or self.m < 0:
            raise ConfigurationError("state and hierarchy indices must be nonnegative")
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


def _jmul_y(a, y, c=0.0):
    """Jet of (y - c) a(y)."""
    z = y - c
    out = [z * a[0]]
    if len(a) > 1:
        out.append(z * a[1] + a[0])
    if len(a) > 2:
        out.append(z * a[2] + 2.0 * a[1])
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
    jet = pe.laguerre_jet(pe.LaguerreSpec(n, alpha), sign * np.asarray(y, dtype=float), order)
    if sign > 0:
        return jet
    return tuple(-v if j % 2 else v for j, v in enumerate(jet))


# ---------------------------------------------------------------------------
# series definitions: S(y, order) and T(y, order) return jets in y
# ---------------------------------------------------------------------------


def _operational(spec: EOPSpec):
    """Map an L2 state to the equivalent L1 state at ell -> ell + 1."""
    if spec.series == "L2":
        return EOPSpec("L1", spec.n, spec.m, spec.params.tau())
    return spec


def _l1_S(spec: EOPSpec):
    alpha = spec.params.ell - 0.5
    n, m = spec.n, spec.m

    def S(y, order):
        # S = B_m L_n - U_m L_n'; L_n and L_n' come from one jet of order + 1
        Bm = _lagjet(m, alpha + 1.0, -1, y, order)
        Um = _lagjet(m, alpha, -1, y, order)
        Ln = _lagjet(n, alpha, 1, y, order + 1)
        return _jsub(_jmul(Bm, Ln[:-1]), _jmul(Um, Ln[1:]))

    return S


def _seed_T(m, alpha):
    """The seed denominator T(y) = L_m^alpha(-y) as a jet function."""

    def T(y, order):
        return _lagjet(m, alpha, -1, y, order)

    return T


def _l3_S(spec: EOPSpec):
    ell = spec.params.ell
    beta = ell + 1.5
    a3 = -ell - 1.5
    n, m = spec.n, spec.m

    def S(y, order):
        # S = (y - ell - 3/2) L_n G + y (L_n G' - L_n' G), G(y) = L_m^a3(-y);
        # each factor and its derivative come from one jet of order + 1
        y = np.asarray(y, dtype=float)
        Ln = _lagjet(n, beta, 1, y, order + 1)
        G = _lagjet(m, a3, -1, y, order + 1)
        LG = _jmul(Ln[:-1], G[:-1])
        W = _jsub(_jmul(Ln[:-1], G[1:]), _jmul(Ln[1:], G[:-1]))
        return tuple(u + v for u, v in zip(_jmul_y(LG, y, ell + 1.5), _jmul_y(W, y)))

    return S


def _series_data(spec: EOPSpec):
    """(S jet fn, T jet fn, prefactor power p, eigenvalue E, denominator seed, family)."""
    op = _operational(spec)
    fam = op.params
    w, ell = fam.omega, fam.ell
    if op.series == "L1":
        S, T = _l1_S(op), _seed_T(op.m, ell - 0.5)
        p = ell + 1.0
        E = (2.0 * op.n + 2.0 * op.m + 2.0 * ell + 1.0) * w
        denom = (pe.LaguerreSpec(op.m, ell - 0.5), -1)
    else:  # L3
        S, T = _l3_S(op), _seed_T(op.m, -ell - 1.5)
        p = ell + 1.0
        E = 2.0 * (op.n + op.m + 1.0) * w
        denom = (pe.LaguerreSpec(op.m, -ell - 1.5), -1)
    return S, T, p, E, denom, fam


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
        S = _series_data(spec)[0]
        out = S(y, 0)[0]
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


def _product_function(omega, p, S_fn, T_fn, singular):
    """r^p exp(-omega r^2/4) S(y)/T(y) with analytic first two derivatives.

    T_fn None stands for T = 1.  f, df and d2f each evaluate the jet only to
    their own order; `jet` gives all three from one evaluation.
    """

    def jet(r, order):
        r = np.asarray(r, dtype=float)
        y = 0.5 * omega * r * r
        g = S_fn(y, order)
        if T_fn is not None:
            g = _jdiv(g, T_fn(y, order))
        # chain rule through y = omega r^2/2, with y' = omega r and y'' = omega
        wr = omega * r
        F = [g[0]]
        A = [r**p * np.exp(-0.25 * omega * r * r)]
        if order > 0:
            F.append(wr * g[1])
            la = p / r - 0.5 * wr
            A.append(la * A[0])
        if order > 1:
            F.append(omega * g[1] + wr * wr * g[2])
            A.append((la * la - p / r**2 - 0.5 * omega) * A[0])
        return _jmul(A, F)

    return Function1D(
        f=lambda r: jet(r, 0)[0],
        df=lambda r: jet(r, 1)[1],
        d2f=lambda r: jet(r, 2)[2],
        domain=(0.0, math.inf),
        singular_points=tuple(singular),
        jet=lambda r: jet(r, 2),
    )


def eigenfunction_closed_form(spec: EOPSpec) -> Function1D:
    """Closed-form eigenfunction of the extended potential for this state."""
    S, T, p, _, denom, fam = _series_data(spec)
    singular = fam.seed_zeros(*denom)
    return _product_function(fam.omega, p, S, T, singular)


def eigenvalue(spec: EOPSpec) -> float:
    """Energy of the state in the extended potential V~- of its branch."""
    return _series_data(spec)[3]


def ro_psi_plus(spec: EOPSpec, n=None) -> Function1D:
    """Eigenfunction of the shifted partner V~+ = V+ + R for this series.

    V~+ is a plain radial oscillator, so these are classical states; they
    feed the intertwining operator, which maps them onto the closed forms.
    """
    op = _operational(spec)
    fam = op.params
    if n is None:
        n = op.n
    if op.series == "L1":
        p, alpha = fam.ell, fam.ell - 0.5
    else:  # L3
        p, alpha = fam.ell + 2.0, fam.ell + 1.5

    def S(y, order):
        return _lagjet(n, alpha, 1, y, order)

    return _product_function(fam.omega, p, S, None, ())


def psi_plus_eigenvalue(spec: EOPSpec, n=None) -> float:
    """Energy of ro_psi_plus(spec, n) in V~+; equal to the V~- ladder value."""
    op = _operational(spec)
    if n is None:
        n = op.n
    return eigenvalue(EOPSpec(op.series, n, op.m, op.params))


def classical_ro_eigenfunction(fam: RadialOscillator, n) -> Function1D:
    """Classical bound state r^(ell+1) exp(-omega r^2/4) L_n^(ell+1/2)(y).

    Eigenfunction of V- of branch 1 (V - omega(ell + 3/2)) at E = 2 n omega.
    """
    alpha = fam.ell + 0.5

    def S(y, order):
        return _lagjet(n, alpha, 1, y, order)

    return _product_function(fam.omega, fam.ell + 1.0, S, None, ())


def intertwine(w_tilde: Function1D, psi_plus: Function1D) -> Function1D:
    """Apply the first-order intertwiner (-d/dr + w~) to a partner state."""
    has_d2 = psi_plus.d2f is not None and w_tilde.df is not None

    def f(r):
        return -psi_plus.df(r) + w_tilde.f(r) * psi_plus.f(r)

    def df(r):
        return (
            -psi_plus.d2f(r)
            + w_tilde.df(r) * psi_plus.f(r)
            + w_tilde.f(r) * psi_plus.df(r)
        )

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
    """The half-density weight of a series: r^p exp(-omega r^2/4)/T(y)."""
    probe = _operational(EOPSpec(series, 0, m, params))
    _, T, p, _, denom, fam = _series_data(probe)
    singular = fam.seed_zeros(*denom)
    omega = fam.omega

    def f(r):
        r = np.asarray(r, dtype=float)
        y = 0.5 * omega * r * r
        return r**p * np.exp(-0.25 * omega * r * r) / T(y, 0)[0]

    def df(r):
        r = np.asarray(r, dtype=float)
        y = 0.5 * omega * r * r
        Tj = T(y, 1)
        logd = p / r - 0.5 * omega * r - omega * r * Tj[1] / Tj[0]
        return logd * f(r)

    fn = Function1D(f=f, df=df, domain=(0.0, math.inf), singular_points=tuple(singular))
    return WeightSpec(
        series=series,
        m=m,
        params=params,
        weight=fn,
        interval=(0.0, math.inf),
        singular_points=tuple(singular),
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


def _panel_rules(a, b, c):
    """Nodes and weights, shape (panels, q), of int_a^b y^c f(y) dy per panel.

    Panels starting at y = 0 use Gauss-Jacobi with the weight y^c, which is
    not smooth at y = 0; the others use Gauss-Legendre.
    """
    x, wx = roots_legendre(_GRAM_ORDER)
    half = 0.5 * (b - a)[:, None]
    y = 0.5 * (a + b)[:, None] + half * x
    w = half * wx * y**c
    first = a == 0.0
    if np.any(first):
        xj, wj = roots_jacobi(_GRAM_ORDER, 0.0, c)
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
    if n_max < 0:
        raise ConfigurationError(f"n_max must be nonnegative, got {n_max}")
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
        w = w * np.exp(-y) / T(y, 0)[0] ** 2
        P = np.stack([S(y, 0)[0] for S in polys])
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
    S = _series_data(op)[0]
    deg = eop_polynomial_degree(spec)
    y_hi = 10.0 + 6.0 * (op.n + op.m + 2.0)
    n_samples = max(64 * (deg + 1), 256)
    ys = np.linspace(1e-9, y_hi, n_samples)
    poly = lambda y: S(y, 0)[0]
    # only the count is used, so the brackets are not refined
    inside = len(pe.sign_change_zeros(poly, ys, poly(ys), 0.0, math.inf).crossings)
    return inside, deg - inside

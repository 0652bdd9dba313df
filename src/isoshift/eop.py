"""Exceptional Laguerre polynomials and eigenfunctions of the extended potentials.

Three series arise from the radial-oscillator branches: L1 (branch 2),
L2 (branch 3, the second process's extension, which equals L1 at
ell + 1) and L3 (branch 1), each from the seed of its own branch's
effective parameters (Family.effective).  Each state is psi(r) =
r^p e^(-y/2) S(y)/T(y), with y = omega r^2/2 the family's variable
(RadialOscillator.variable, the one place it is written), S the
exceptional polynomial, T the seed polynomial of the underlying
deformation, and the orthogonality measure W^2 dr where
W = r^p e^(-y/2)/T(y) = exp(-int w) for the ground-state-like
superpotential w of the extension.

Polynomial values and their derivatives are carried as "jets", tuples
(value, d/dy, ..., d^k/dy^k) combined by catalog's jet rules (_jmul, _jdiv,
_chain), so that every eigenfunction carries analytic first and second
derivatives.  Each Laguerre factor is one call of its spec's jet
(polyengine.laguerre_jet), whose blocked recurrence yields a polynomial and
all its derivatives, each derivative a value at shifted parameters: every
P_n, and the L1 and L2 seeds T, at alpha > -1, take them as running sums
of the values in one pass, and the L3 seed, at alpha <= -1, from one
value recurrence per row.  The chain rule through y (catalog._chain)
takes y' and y'' from the family's variable.  Every state is (-d/dr + w~) applied to a classical partner
state with the Laguerre factor P_n, so all series share one numerator,
S = c0 T P_n + c1 (P_n T' - P_n' T), with (c0, c1) = (1, 1) for L1 and
(y + alpha, y) for L3 (alpha the seed's parameter); at n = 0,
L1's S is T + dT/dy = L_m^(alpha+1)(-y) (DLMF 18.9.14, 18.9.23).  T is
evaluated once per point set, to one order above the eigenfunction's, for
S and the denominator, and P_n and P_n' take one call, so a state costs two
kernel calls whatever the order.  Every state and weight is a
catalog.Function1D of order 2 (an intertwined state of order 1): its f, df
and d2f evaluate to orders 0, 1 and 2, and its `jet` returns all three from
one order-2 evaluation.  The S = 1 weight evaluates T only to its own
order.  On a 1-D r longer than polyengine._BLOCK points, the jet runs block
by block into one preallocated output: the kernel calls, the product,
quotient and chain rules, r^p and the Gaussian then make block-sized
temporaries only, and the rows are bitwise those of one pass.

Gram matrices are integrated in y, where W^2 dr is a constant times
y^(p-1/2) e^(-y) / T(y)^2 dy, up to the cut omega r_cut^2/2.  One composite
Gauss rule serves every entry: T is evaluated once at all nodes and shared
by every S_n and the weight, each S_n is evaluated once there, and
G = P diag(w e^(-y)/T^2) P^T.  The first panel [0, h0] is Gauss-Jacobi with
the weight y^(p-1/2); the panels after it double in width and are
Gauss-Legendre.  A panel that disagrees with the sum over its two halves is
split, and the summed disagreement of the accepted panels is the Gram's
error estimate.  Both rules come from _gauss_jacobi, in numpy, from
polyengine's Jacobi matrix and cached per exponent, so the module loads no
scipy: scipy.integrate loads only when weight_from_superpotential first
integrates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import polyengine as pe
from .catalog import Function1D, RadialOscillator, _chain, _jdiv, _jmul
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
    if not isinstance(series, str) or series not in _SERIES_BRANCH:
        raise ConfigurationError(f"series must be one of {tuple(_SERIES_BRANCH)}, got {series!r}")
    return _SERIES_BRANCH[series]


@dataclass(frozen=True)
class EOPSpec:
    """One exceptional-polynomial state: series, state index n, hierarchy m."""

    series: str
    n: int
    m: int
    params: RadialOscillator

    def __post_init__(self):
        series_branch(self.series)
        check_index(self.n, "state index n")
        check_index(self.m, "hierarchy index m")
        RadialOscillator.check(self.params)


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
# series: one record per (series, m, family) and one numerator for all three
# ---------------------------------------------------------------------------


def _numerator(n, a, shift, y, T, order):
    """The jet to `order` of S = c0 T P_n + c1 W, P_n = L_n^a(y) and W =
    P_n T' - P_n' T, from the seed's jet T to order + 1: (c0, c1) is (1, 1)
    when shift is None and (y + shift, y) otherwise."""
    # P_n and P_n' come from one jet of order + 1; the P_n' T' terms of W'
    # cancel, so W' = P_n T'' - P_n'' T
    P = pe.LaguerreSpec(n, a).jet(y, order + 1)
    PT = _jmul(P[:-1], T[:-1])
    W = [P[0] * T[1] - P[1] * T[0]]
    if order > 0:
        W.append(P[0] * T[2] - P[2] * T[0])
    if order > 1:
        W.append(P[1] * T[2] + P[0] * T[3] - P[3] * T[0] - P[2] * T[1])
    if shift is None:
        return tuple(u + v for u, v in zip(PT, W))
    # the product rule against the jets of the linear factors y + shift and y
    lin = (1.0, 0.0)[:order]
    return tuple(u + v for u, v in zip(_jmul((y + shift, *lin), PT), _jmul((y, *lin), W)))


@dataclass(frozen=True)
class _Series:
    """One series at one m: psi~_n = r^p e^(-y/2) S_n/T is (-d/dr + w~)
    psi+_n, psi+_n = r^p_plus e^(-y/2) L_n^a(y), both at energy(n) =
    2 n omega + E_0.  T is the seed L_m^alpha(-y) of the series' branch,
    whose jet is seed.jet(y, order); S_n, _numerator's at a and shift, has
    degree n + m + offset.  L2's record, from branch 3, equals L1's at
    ell + 1."""

    seed: pe.LaguerreSpec
    a: float
    shift: float | None
    p: float
    p_plus: float
    energy: object
    offset: int

    def S(self, n, y, T, order):
        """The jet of S_n to `order`, from the seed's jet T to order + 1."""
        return _numerator(n, self.a, self.shift, y, T, order)

    def value(self, n, y):
        """S_n(y)."""
        return self.S(n, y, self.seed.jet(y, 1), 0)[0]


def _series(spec: EOPSpec) -> _Series:
    """The record of the spec's series at its m, from the seed of its branch
    at the effective a: P_n is L_n^alpha for L1 and L2 (a = ell and
    ell + 1) and L_n^(-alpha) for L3, alpha the seed's parameter."""
    m, params, w = spec.m, spec.params, spec.params.omega
    a, b, _ = params.effective(params.branches()[series_branch(spec.series) - 1])
    seed, _ = params.seed(a, b, m)
    if spec.series == "L3":
        return _Series(seed, -seed.alpha, seed.alpha, -a, params.ell + 2.0,
                       lambda n: 2.0 * (n + m + 1.0) * w, 1)
    return _Series(seed, seed.alpha, None, a + 1.0, a,
                   lambda n: (2.0 * n + 2.0 * m + 2.0 * a + 1.0) * w, 0)


def eop_polynomial_degree(spec: EOPSpec) -> int:
    """Degree in y of the exceptional polynomial of a state."""
    return spec.n + spec.m + _series(spec).offset


def eop_eval(spec: EOPSpec, r):
    """The exceptional polynomial of a state, evaluated at radius r.

    L1 and L3 evaluate the certified closed forms used by the
    eigenfunctions.  L2 evaluates the traditional printed series with its
    1/(ell - m + 1/2) prefactor, undefined when ell - m + 1/2 = 0.  That is
    a different polynomial, not a constant multiple of the numerator of
    eigenfunction_closed_form (L1 at ell + 1) except at n = m = 0.
    """
    scalar = np.ndim(r) == 0
    r = np.asarray(r, dtype=float)
    y = spec.params.variable(r, 0)[0]
    if spec.series == "L2":
        ell, n, m = spec.params.ell, spec.n, spec.m
        c = ell - m + 0.5
        if abs(c) < 1e-12:
            raise DegenerateParameterError(
                f"L2 series undefined at ell - m + 1/2 = 0 (ell={ell}, m={m})"
            )
        Ln, dLn = pe.LaguerreSpec(n, ell + 0.5).jet(y, 1)
        term1 = c * pe.laguerre_eval(pe.LaguerreSpec(m, -ell - 1.5), y) * Ln
        term2 = y * pe.laguerre_eval(pe.LaguerreSpec(m, -ell - 0.5), y) * dLn
        out = (term1 + term2) / c
    else:
        out = _series(spec).value(spec.n, y)
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


def _product_function(family, p, ratio, singular):
    """r^p e^(-y/2) g(y) at the family's variable y, with analytic first two
    derivatives, where ratio(y, order) is the jet of g in y: S/T, S alone
    (T = 1) or 1/T."""

    def jet(r, order):
        r = np.asarray(r, dtype=float)
        Y = family.variable(r, order)
        F = _chain(ratio(Y[0], order), Y)
        # (r^p e^(-y/2))' = (p/r - y'/2) r^p e^(-y/2)
        A = [r**p * np.exp(-0.5 * Y[0])]
        if order > 0:
            la = p / r - 0.5 * Y[1]
            A.append(la * A[0])
        if order > 1:
            A.append((la * la - p / r**2 - 0.5 * Y[2]) * A[0])
        return _jmul(A, F)

    return Function1D(jet, family.domain, singular, order=2)


def eigenfunction_closed_form(spec: EOPSpec) -> Function1D:
    """Closed-form eigenfunction of the extended potential for this state."""
    rec = _series(spec)
    singular = spec.params.seed_zeros(rec.seed)
    ratio = partial(_quotient, partial(rec.S, spec.n), rec.seed.jet)
    return _product_function(spec.params, rec.p, ratio, singular)


def eigenvalue(spec: EOPSpec) -> float:
    """Energy of the state in the extended potential V~- of its branch."""
    return _series(spec).energy(spec.n)


def ro_psi_plus(spec: EOPSpec) -> Function1D:
    """Eigenfunction of the shifted partner V~+ = V+ + R for this state.

    V~+ is a plain radial oscillator, so these are classical states,
    r^p e^(-y/2) L_n^(p-1/2)(y); they feed the intertwining
    operator, which maps them onto the closed forms.  The energy is
    eigenvalue(spec).
    """
    rec = _series(spec)
    return _product_function(spec.params, rec.p_plus, pe.LaguerreSpec(spec.n, rec.a).jet, ())


def classical_ro_eigenfunction(fam: RadialOscillator, n) -> Function1D:
    """Classical bound state r^(ell+1) e^(-y/2) L_n^(ell+1/2)(y).

    Eigenfunction of V- of branch 1 (V - omega(ell + 3/2)) at E = 2 n omega.
    """
    RadialOscillator.check(fam)
    return _product_function(fam, fam.ell + 1.0, pe.LaguerreSpec(n, fam.ell + 0.5).jet, ())


def intertwine(w_tilde: Function1D, psi_plus: Function1D) -> Function1D:
    """Apply the first-order intertwiner (-d/dr + w~) to a partner state:
    the jet _jmul(w~, psi_plus) - the jet of psi_plus'.  Each row reads the
    jets of psi_plus and w~ once.  The result is one order below psi_plus,
    and no higher than w~; a psi_plus of order 0 raises ConfigurationError."""
    if psi_plus.order < 1:
        raise ConfigurationError("the partner state carries no df, which the intertwiner needs")

    def jet(r, order):
        p = psi_plus.jet(r, order + 1)
        w = w_tilde.jet(r, order)
        return tuple(s - d for s, d in zip(_jmul(w, p[:-1]), p[1:]))

    order = min(psi_plus.order - 1, w_tilde.order)
    return Function1D(jet, psi_plus.domain, w_tilde.singular_points, order)


# ---------------------------------------------------------------------------
# weights and Gram matrices
# ---------------------------------------------------------------------------


def weight_spec(series: str, m: int, params: RadialOscillator) -> WeightSpec:
    """The half-density weight of a series: r^p e^(-y/2)/T(y), with
    analytic df and d2f and a `jet`."""
    rec = _series(EOPSpec(series, 0, m, params))
    singular = tuple(params.seed_zeros(rec.seed))
    weight = _product_function(params, rec.p, partial(_reciprocal, rec.seed.jet), singular)
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

    A jet of order 1, (W, -w~ W).  Unique up to an overall constant (the
    choice of anchor).  The quadrature is the module attribute `quad`,
    scipy.integrate's, loaded on first use (see __getattr__); it is looked
    up at each call, so a replacement bound to eop.quad is the one used.
    """
    module = sys.modules[__name__]

    def one(x):
        val, _ = module.quad(lambda t: float(w_tilde.f(t)), anchor, x, limit=200)
        return math.exp(-val)

    def jet(x, order):
        if np.ndim(x) == 0:
            f = one(float(x))
        else:
            f = np.array([one(float(xi)) for xi in np.asarray(x, dtype=float)])
        if not order:
            return (f,)
        return f, -w_tilde.f(x) * f

    return Function1D(jet, w_tilde.domain, w_tilde.singular_points)


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
    (1969) 221), the package's one such matrix (polyengine.jacobi_matrix of
    P_n^(a,b), which also gives the seeds' classical zeros), polished by one
    Newton step on p_n from the three-term recurrence; the weights are
    Christoffel's, 1 / sum_{k<n} p_k(x)^2 (Hale and Townsend, SIAM J. Sci.
    Comput. 35 (2013) A652), that sum moved to the polished nodes to first
    order.  Legendre is a = b = 0.  Only the Gram rules come through here:
    the cache holds their few (n, a, b), so their arrays are read-only, and
    no seed's parameters evict them.
    """
    diag, off = pe.jacobi_matrix(pe.JacobiSpec(n, a, b))
    # the weight's integral, int (1-x)^a (1+x)^b dx
    mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
    mu0 /= math.gamma(a + b + 2.0)
    x = pe._eigenvalues(diag, off)

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


def gram_matrix(series: str, m: int, params: RadialOscillator, n_max: int,
                singular_points=None):
    """(G, err): the Gram matrix G[n, n'] = int P_n P_n' W^2 dr over
    (0, r_cut) and its quadrature error estimate.

    Refuses singular extensions.  singular_points, when given, are the seed
    zeros of the series' deformation (from seed_polynomial of its branch),
    which then are not scanned again; None scans them as weight_spec does.
    The cut r_cut follows the Gaussian decay of W^2; the truncated tail is
    below 1e-12 of the diagonal scale for the ranges certified here.

    In y = omega r^2/2 the measure W^2 dr is
    (2/omega)^p (2 omega)^(-1/2) y^(p-1/2) e^(-y) / T(y)^2 dy.  The range
    (0, omega r_cut^2/2) is cut into the Gauss-Jacobi panel [0, h0] and the
    Gauss-Legendre panels [h0 2^k, h0 2^(k+1)].  Every panel is compared with
    the sum over its two halves; panels that disagree by more than
    _GRAM_TOL (1e-13 of sqrt(G_nn G_n'n'), like gram_offdiag_max) are split
    and redone, and G sums the halves of the accepted panels.  err is the
    largest entry of the summed |halves - whole| of those panels, normalized
    the same way.  Refinement past _GRAM_MAX_NODES nodes raises QuadratureError.
    """
    check_index(n_max, "n_max")
    rec = _series(EOPSpec(series, 0, m, params))
    if singular_points is None:
        singular_points = tuple(params.seed_zeros(rec.seed))
    if singular_points:
        raise SingularExtensionError(
            f"{series} extension with m={m} is singular; Gram matrix undefined",
            points=singular_points,
        )
    omega = params.omega
    r_cut = max(10.0, 8.0 / math.sqrt(omega)) * (1.0 + math.sqrt(n_max + m))
    y_cut = params.variable(r_cut, 0)[0]
    c = rec.p - 0.5

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
        Tj = rec.seed.jet(y, 1)
        w = w * np.exp(-y) / Tj[0] ** 2
        P = np.stack([rec.S(n, y, Tj, 0)[0] for n in range(size)])
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
    scale = (2.0 / omega) ** rec.p / math.sqrt(2.0 * omega)
    return scale * G, float(np.max(err / np.outer(d, d)))


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
    complex zeros).  The scan runs to y = 4 deg + 2(|a| + |alpha|) + 20,
    a the parameter of P_n and alpha the seed's, past the zeros of both
    Laguerre factors.
    """
    rec = _series(spec)
    deg = spec.n + spec.m + rec.offset
    y_hi = 4.0 * deg + 2.0 * (abs(rec.a) + abs(rec.seed.alpha)) + 20.0
    n_samples = max(64 * (deg + 1), 256)
    ys = np.linspace(1e-9, y_hi, n_samples)
    poly = partial(rec.value, spec.n)
    # only the count is used, so the brackets are not refined
    inside = len(pe.sign_change_zeros(poly, ys, poly(ys), 0.0, math.inf).crossings)
    return inside, deg - inside

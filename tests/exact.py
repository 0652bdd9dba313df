"""Exact exceptional Laguerre numerators in Q[y], an oracle for the tests.

A polynomial is a list of fractions.Fraction coefficients, lowest degree
first.  At rational (omega, ell) every numerator S of eop has rational
coefficients, so its degree and its count of distinct zeros in (0, inf)
are decided exactly, with no tolerance: the degree from the last nonzero
coefficient, the zeros by a Sturm sequence.
"""

from fractions import Fraction


def trim(p):
    """p without its zero leading coefficients; [] is the zero polynomial."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def add(p, q):
    n = max(len(p), len(q))
    p, q = list(p) + [0] * (n - len(p)), list(q) + [0] * (n - len(q))
    return trim(a + b for a, b in zip(p, q))


def scale(c, p):
    return trim(c * a for a in p)


def mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def deriv(p):
    return trim(k * a for k, a in enumerate(p) if k)


def degree(p):
    """The exact degree; -1 for the zero polynomial."""
    return len(trim(p)) - 1


def evaluate(p, y):
    out = Fraction(0)
    for a in reversed(p):
        out = out * y + a
    return out


def laguerre(n, alpha, sign=1):
    """L_n^alpha(sign y) from the finite sum (DLMF 18.5.12):
    sum_k (alpha + k + 1)_(n - k) / ((n - k)! k!) (-x)^k."""
    alpha = Fraction(alpha)
    coeffs = []
    for k in range(n + 1):
        c = Fraction(1)
        for j in range(n - k):  # the rising factorial over (n - k)!
            c *= (alpha + k + 1 + j) / (j + 1)
        for j in range(1, k + 1):
            c /= j
        coeffs.append(c * (-sign) ** k)
    return trim(coeffs)


def numerator(series, n, m, ell):
    """S of eop for one state, built by eop's formula
    S = c0 T P_n + c1 (P_n T' - P_n' T) with T = L_m^alpha(-y) the seed:
    L1 has alpha = ell - 1/2, P_n = L_n^alpha and (c0, c1) = (1, 1); L2 is L1
    at ell + 1; L3 has alpha = -ell - 3/2, P_n = L_n^(-alpha) and
    (c0, c1) = (y + alpha, y)."""
    ell = Fraction(ell)
    if series == "L2":
        series, ell = "L1", ell + 1
    if series == "L1":
        alpha = ell - Fraction(1, 2)
        P, c0, c1 = laguerre(n, alpha), [Fraction(1)], [Fraction(1)]
    else:
        alpha = -ell - Fraction(3, 2)
        P, c0, c1 = laguerre(n, -alpha), [alpha, Fraction(1)], [Fraction(0), Fraction(1)]
    T = laguerre(m, alpha, -1)
    W = add(mul(P, deriv(T)), scale(-1, mul(deriv(P), T)))
    return add(mul(c0, mul(T, P)), mul(c1, W))


def _rem(p, q):
    """The remainder of p divided by q."""
    p = trim(p)
    while len(p) >= len(q):
        c, shift = p[-1] / q[-1], len(p) - len(q)
        p = trim(a - c * q[i - shift] if i >= shift else a for i, a in enumerate(p))
    return p


def _sign_changes(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def positive_zeros(p):
    """The number of distinct zeros of p in (0, inf), by Sturm's theorem:
    V(0) - V(inf) for the sequence p, p', -rem(p, p'), ...; a zero at y = 0
    is divided out first, so that p(0) != 0."""
    p = trim(p)
    while p and p[0] == 0:
        p = p[1:]
    seq = [p, deriv(p)]
    while seq[-1]:
        seq.append(scale(-1, _rem(seq[-2], seq[-1])))
    seq.pop()
    return _sign_changes([q[0] for q in seq]) - _sign_changes([q[-1] for q in seq])

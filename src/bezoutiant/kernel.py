"""Explicit Bezoutiant construction and its exact structural identities.

Given two polynomial densities Psi_1, Psi_2 on [0, a] (normalized to unit
mass), the Bezoutiant is the integral operator

    (Tf)(x) = c * int_0^a f(t) U(x, t) dt,

where U is the integral of

    Psi_2(a-s) g1(a-s-x+t) - Psi_2(s+x-t) g1(s),    g1 = conj Psi_1,

over s in [t, a] (x < t) resp. [t, a+t-x] (x > t).  Every identity this
module checks (adjoint action on 1, diagonal continuity) is verified as
an exact polynomial identity, never numerically.

The paper allows any (alpha, beta) with s = conj(alpha) + beta != 0; they
enter only through s, as c = -1/s and M_2 = (Phi_2 + conj Phi_1(a-x) - 1)/s.
So T = c U and M_2 scale by 1/s, n_2 = -i s M_2 does not depend on s, and
T*1 = conj M_2(a-x) and T B_1 - B_2* T = N_2 N_1* hold for every s exactly
when they hold at s = 1, their residuals scaled by 1/|s|.  This module fixes
s = 1: c = -1 and M_2 = Phi_2 + conj Phi_1(a-x) - 1.

The kernel needs only one-dimensional integrals.  Put u = x - t and

    A(y, u) = int_0^y Psi_2(sigma) g1(sigma - u) d sigma.

In the first product substitute sigma = a - s; s in [t, a] becomes
sigma in [0, a-t], and s in [t, a-u] becomes sigma in [u, a-t].  In the
second substitute sigma = s + u; s in [t, a] becomes sigma in [x, a+u],
and s in [t, a-u] becomes sigma in [x, a].  Hence

    U_lower = A(a-t, u) - A(a+u, u) + A(x, u),
    U_upper = A(a-t, u) - A(u, u) - A(a, u) + A(x, u).

A is a dense table in (y, u): with g1(sigma - u) = sum_{i,l} g_{i+l}
C(i+l, i) (-1)^l sigma^i u^l, the coefficient of y^(m+1) u^l is
(1/(m+1)) sum_{i+k=m} psi2_k g_{i+l} C(i+l, i) (-1)^l.  One Taylor shift
of each u-column by a gives the table of A(a+w, u), from which A(a-t, u)
(w = -t), A(a+u, u) (w = u) and A(a, u) (w = 0) are read without further
integration.  Expanding u^l = (x-t)^l by binomial sums returns both pieces
in (x, t).  All of it runs on integer numerators over one common
denominator.  Each piece is those integer tables (`MPoly`): `to_json`
reduces each coefficient by one gcd, and `u_at` (an exact scalar triple)
and the exact checks read the tables' rows as integer `Poly`s.  The
constant c = -1 is the integer -1, and the masses R_k of `NormalizedPair`
are exact scalar triples (re, im, den), as `Poly.integral` returns them.

The float tables, `BezoutKernel.float_pieces` and `MFunctions.float_table`
(built on first read, so the `kernel` task never pays for them), are in
the centered variables xi = 2x/a - 1 and tau = 2t/a - 1, in which [0, a]
is [-1, 1] and no power exceeds 1 in size.  `_center` centers one
variable exactly, on integers; the kernel pieces are centered along each
axis, and Phi_1, Phi_2 and M_2 stacked as one set of vectors.  Each part
is then divided once through `exact.to_floats`, so every float is the
exact coefficient correctly rounded, and one past float range is a
`FloatRangeError`.  `u_float` and the operator check evaluate in xi and tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from operator import add

import numpy as np

from .exact import MPoly, Poly, _frac, _ratio_str, _shift_real, float_endpoint, to_floats


class ZeroMassError(ValueError):
    """A density integrates to zero over [0, a]; the construction needs R != 0."""


@dataclass(frozen=True)
class NormalizedPair:
    """Densities scaled to unit mass, with the original normalizers kept; read
    by the kernel, the M-functions, the operator check, `l_operator` and
    `v_symbol`.  `decide` needs no normalized pair (`symbol` module doc)."""

    psi1: Poly
    psi2: Poly
    a: Fraction
    r1: tuple  # the masses R_k as exact scalars (re, im, den)
    r2: tuple


@dataclass(frozen=True)
class MFunctions:
    """Phi_k(t) = int_t^a psi_k and the induced M_2 polynomial."""

    phi1: Poly
    phi2: Poly
    m2: Poly
    a: Fraction

    @cached_property
    def float_table(self) -> np.ndarray:
        """(m, 4) complex: column c holds the xi^k coefficients of Phi_1,
        Phi_2, M_2(x) and M_2(a - x), xi = 2x/a - 1 (module doc); built
        on first read.  As xi(a - x) = -xi(x), the last column is M_2's with
        its odd coefficients negated."""
        polys = (self.phi1, self.phi2, self.m2)
        m = max(len(p.triple[0]) for p in polys)
        # vectors[k]: the x^k coefficients of the three, re and im parts
        vectors = [[part[k] if k < len(part) else 0 for p in polys for part in p.triple[:2]]
                   for k in range(m)]
        scale = _center(vectors, self.a)
        out = np.empty((m, 4), dtype=complex)
        for c, p in enumerate(polys):
            out.real[:, c], out.imag[:, c] = (
                to_floats([v[2 * c + h] for v in vectors], p.triple[2] * scale,
                          "an M-function coefficient") for h in (0, 1))
        out[:, 3] = out[:, 2]
        out[1::2, 3] = -out[1::2, 2]
        return out


@dataclass(frozen=True)
class BezoutKernel:
    """Kernel c * U(x, t), with U stored per region as exact bivariate polys.

    `u_lower` is valid for x < t, `u_upper` for x > t; from `build_kernel`
    both hold integer tables over one denominator (module doc).
    """

    c: int
    u_lower: MPoly
    u_upper: MPoly
    a: Fraction

    def u_at(self, x, t) -> tuple:
        """The exact scalar U(x, t) at rational x and t."""
        piece = self.u_lower if _frac(x) < _frac(t) else self.u_upper
        return piece.eval(x, t)

    @cached_property
    def float_pieces(self) -> tuple:
        """(lower, upper): dense complex coefficients C[i, j] of xi^i tau^j of
        each piece, in the centered variables xi = 2x/a - 1, tau = 2t/a - 1
        (module doc); built on first read."""
        return tuple(_centered_table(piece, self.a) for piece in (self.u_lower, self.u_upper))

    def centered(self, x):
        """2x/a - 1: the variable of `float_pieces`, [0, a] onto [-1, 1]."""
        return 2 * (np.asarray(x, dtype=float) / float_endpoint(self.a)) - 1  # 2x would overflow near 1e308

    def u_float(self, x, t):
        """Float evaluation on scalars or broadcastable arrays, in xi and tau."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        lower, upper = (_horner_xt(c, self.centered(x), self.centered(t)) for c in self.float_pieces)
        return np.where(x < t, lower, upper)

    def to_json(self):
        return {
            "a": _ratio_str(self.a.numerator, self.a.denominator),
            "c": str(self.c),
            "u_lower": self.u_lower.to_json(),
            "u_upper": self.u_upper.to_json(),
        }


def _center(vectors: list, a: Fraction) -> int:
    """In place: `vectors` holds the x^k coefficients, k = 0..n, of integer
    vectors (elementwise); they become the xi^k coefficients times (2q)^n,
    xi = 2x/a - 1, a = p/q.  Returns (2q)^n.

    x^k = p^k (xi + 1)^k / (2q)^k, so coefficient k times p^k (2q)^(n-k),
    shifted by one (a Taylor shift as `_shift_real` runs it, in additions
    only), is the centered coefficient over (2q)^n.
    """
    p, q2 = a.numerator, 2 * a.denominator
    n = len(vectors) - 1
    for k, v in enumerate(vectors):
        scale = p ** k * q2 ** (n - k)
        vectors[k] = [e * scale for e in v]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            vectors[j] = list(map(add, vectors[j], vectors[j + 1]))
    return q2 ** n


def _centered_table(piece: MPoly, a: Fraction) -> np.ndarray:
    """The piece in xi = 2x/a - 1 and tau = 2t/a - 1: complex C[i, j] of
    xi^i tau^j, trimmed to the piece's nonzero extent (dx, dt).

    `_center` along t (the columns), then along x (the rows), gives the
    centered table over den (2q)^(dt+dx), all in integers; each part is
    then one correctly rounded division (`to_floats`).
    """
    re, im, den = piece.table
    terms = piece.terms
    dx = max((i for i, *_ in terms), default=0)
    dt = max((j for _, j, *_ in terms), default=0)
    # cols[j]: the tau^j coefficients of the re rows 0..dx, then the im rows
    cols = [[part[i][j] for part in (re, im) for i in range(dx + 1)] for j in range(dt + 1)]
    den *= _center(cols, a)
    rows = [[col[h + i] for h in (0, dx + 1) for col in cols] for i in range(dx + 1)]
    den *= _center(rows, a)
    parts = [v for row in rows for v in row[:dt + 1]], [v for row in rows for v in row[dt + 1:]]
    out = np.empty((dx + 1, dt + 1), dtype=complex)
    out.real, out.imag = (np.reshape(to_floats(part, den, "a kernel coefficient"), out.shape)
                          for part in parts)
    return out


def _horner_xt(coeffs: np.ndarray, x: np.ndarray, t: np.ndarray):
    """sum_ij coeffs[i, j] x^i t^j: Horner in x over rows evaluated in t."""
    polyval = np.polynomial.polynomial.polyval
    acc = polyval(t, coeffs[-1])
    for row in coeffs[-2::-1]:
        acc = acc * x + polyval(t, row)
    return acc


def normalize_pair(psi1: Poly, psi2: Poly, a) -> NormalizedPair:
    """Divide each density by its exact mass R_k = int_0^a psi_k.

    Both steps run on integer numerators and reduce each output once: the
    mass is one sum over the coefficients (`Poly.integral`), and with
    R_k = (r_r + i r_i) / r_d each coefficient (p_r + i p_i) / den of
    psi_k becomes (p_r + i p_i)(r_r - i r_i) r_d / (den |r|^2)
    (`Poly.__truediv__`).
    """
    a = _frac(a)
    if a <= 0:
        raise ValueError("interval endpoint a must be positive")
    r1 = psi1.integral(0, a)
    r2 = psi2.integral(0, a)
    if not (r1[0] or r1[1]) or not (r2[0] or r2[1]):
        raise ZeroMassError("a density has zero mass on [0, a]")
    return NormalizedPair(psi1 / r1, psi2 / r2, a, r1, r2)


def build_m_functions(pair: NormalizedPair) -> MFunctions:
    a = pair.a
    one = Poly.of(1)
    # int_t^a psi = P(a) - P(t) with P(a) = 1, the normalized mass
    phi1, phi2 = (one - psi.antiderivative() for psi in (pair.psi1, pair.psi2))
    return MFunctions(phi1, phi2, phi2 + phi1.reflect(a) - one, a)


def _kernel_pieces(pair: NormalizedPair) -> tuple:
    """(U_lower, U_upper) from the table of A(y, u); see the module doc."""
    pr, pi, pd = pair.psi2.triple
    gr, gi, gd = pair.psi1.conjugate().triple
    d1, d2 = len(gr) - 1, len(pr) - 1
    top = d1 + d2 + 1  # highest power of y in A, and total degree of U
    ell = lcm(*range(1, top + 1))
    p, q = pair.a.numerator, pair.a.denominator
    size = range(top + 1)

    # A[m][l] = [y^m u^l] A(y, u), numerators over pd gd ell: the s^i u^l
    # coefficient of g1(s - u) is g_{i+l} C(i+l, i) (-1)^l.
    are = [[0] * (d1 + 1) for _ in size]
    aim = [[0] * (d1 + 1) for _ in size]
    for l in range(d1 + 1):
        for i in range(d1 - l + 1):
            b = comb(i + l, i) * (-1) ** l
            br, bi = gr[i + l] * b, gi[i + l] * b
            for k in range(d2 + 1):
                w = ell // (i + k + 1)
                are[i + k + 1][l] += (pr[k] * br - pi[k] * bi) * w
                aim[i + k + 1][l] += (pr[k] * bi + pi[k] * br) * w

    # sh[i][l] = [w^i u^l] A(a + w, u): each column shifted by a = p/q,
    # numerators over pd gd ell q^top, the common denominator from here on.
    sre = [[0] * (d1 + 1) for _ in size]
    sim = [[0] * (d1 + 1) for _ in size]
    for l in range(d1 + 1):
        cre = [are[j][l] * q ** (top - j) for j in size]
        cim = [aim[j][l] * q ** (top - j) for j in size]
        _shift_real(cre, p)
        _shift_real(cim, p)
        for i in size:
            sre[i][l], sim[i][l] = cre[i] * q ** i, cim[i] * q ** i
            are[i][l], aim[i][l] = are[i][l] * q ** top, aim[i][l] * q ** top
    den = pd * gd * ell * q ** top

    sign_binom = [[comb(l, r) * (-1) ** (l - r) for r in range(l + 1)] for l in size]
    ure = [[0] * (top + 1) for _ in size]
    uim = [[0] * (top + 1) for _ in size]

    def add(re, im, cr, ci, xp, tp, l):
        """out += (cr + i ci) x^xp t^tp (x - t)^l."""
        if cr or ci:
            for r, b in enumerate(sign_binom[l]):
                re[xp + r][tp + l - r] += cr * b
                im[xp + r][tp + l - r] += ci * b

    # shared part A(x, u) + A(a - t, u), u = x - t; column l has degree
    # top - l in y.  Collect the univariate parts A(a + u, u) (lower) and
    # A(u, u) + A(a, u) (upper) as coefficients of u^j on the way.
    lo_re, lo_im = [0] * (top + 1), [0] * (top + 1)
    up_re, up_im = [0] * (top + 1), [0] * (top + 1)
    for l in range(d1 + 1):
        up_re[l] += sre[0][l]
        up_im[l] += sim[0][l]
        for m in range(top - l + 1):
            add(ure, uim, are[m][l], aim[m][l], m, 0, l)
            sign = (-1) ** m
            add(ure, uim, sre[m][l] * sign, sim[m][l] * sign, 0, m, l)
            lo_re[m + l] += sre[m][l]
            lo_im[m + l] += sim[m][l]
            up_re[m + l] += are[m][l]
            up_im[m + l] += aim[m][l]
    lower = ([row[:] for row in ure], [row[:] for row in uim])
    for j in size:
        add(*lower, -lo_re[j], -lo_im[j], 0, 0, j)
        add(ure, uim, -up_re[j], -up_im[j], 0, 0, j)

    return MPoly(*lower, den), MPoly(ure, uim, den)


def build_kernel(pair: NormalizedPair) -> BezoutKernel:
    """Exact kernel pieces from one table of one-dimensional integrals; c = -1."""
    return BezoutKernel(-1, *_kernel_pieces(pair), pair.a)


def adjoint_apply_to_one(k: BezoutKernel) -> Poly:
    """(T* 1)(x) = conj(c) int_0^a conj(U(t, x)) dt, as an exact polynomial.

    Read in (s, t) with t in the role of x, this is
    conj(c (int_0^t U_lower(s, t) ds + int_t^a U_upper(s, t) ds)).
    """
    lower, upper = k.u_lower * k.c, k.u_upper * k.c
    return (lower.definite_integral(0, "t") + upper.definite_integral("t", k.a)).conjugate()


def check_adjoint_identity(k: BezoutKernel, mf: MFunctions) -> bool:
    """Exact check of T*1 = conj(M_2(a - x))."""
    return adjoint_apply_to_one(k) == mf.m2.reflect(mf.a)


def _on_diagonal(u: MPoly) -> Poly:
    """p(x, x) = sum_i x^i p_i(x) as a univariate polynomial."""
    return sum((row.times_x(i) for i, row in enumerate(u.rows())), Poly.of())


def check_diagonal_continuity(k: BezoutKernel) -> bool:
    """u_lower(x, x) = u_upper(x, x) as polynomials."""
    return _on_diagonal(k.u_lower) == _on_diagonal(k.u_upper)

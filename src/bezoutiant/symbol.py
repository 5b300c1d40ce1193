"""Symbol V(u), differential operator L(D), and the common-zero verdict.

Each transform is an exponential polynomial in w = 1/z,

    F(z) = e^{iaz} P(w) + Q(w),    p_j = -i^j g^(j-1)(a),  q_j = i^j g^(j-1)(0),

with g its density (`transform` module doc).  `decide` reads the spec's
pair as it is: P1, Q1 of F_1 = `closed_form(Psi_1)` (density g1 =
conj Psi_1) and P21, Q21 of F_{2,1} = R(F_2), R(F)(z) = e^{iaz} conj F(conj z)
= (a, conj Q, conj P), the integer triples the two transforms hold, which
`Verdict.transforms` hands on to the zero locator.  Everything reads

    D = P1 Q21 - P21 Q1.

* L and V.  For the normalized pair ordered so that Q = deg Psi_1 >=
  deg Psi_2, differentiating Tf Q+1 times gives a differential operator
  L(D) plus a convolution with the symbol V(x - t), with

      L(D) = sum_{s<Q} W_{Q-1-s} D^s,   V(u) = sum_{m<=Q} W_{Q+m} u^m / m!,

  and W_m = i^m [w^(m+2)] D is the paper's boundary sum sum_{i+j=m}
  [(-1)^i g1^(i)(a) Psi_2^(j)(a) - (-1)^j Psi_2^(i)(0) g1^(j)(0)], as the
  jets in D show.  `l_operator` (m < Q) and `v_symbol` (Q <= m <= 2Q) take
  that pair and sum only the range they read, on integer numerators.
* Mirror tests.  Coincidence psi_1 = c conj psi_2(a-x) <=> F_{2,1} = c' F_1
  <=> Q21 = c' Q1 (Q is g's jet at 0 times fixed units); symmetry psi =
  c conj psi(a-x) <=> F = c R(F) <=> Q = c conj P.  `_equal` tests both
  for some c != 0, with no masses: g = c conj g(a-x) twice gives |c| = 1,
  and nonzero masses fix c by F(0) = conj R to what normalizing divides
  out, so the normalized pair is equal (to its mirror).
* Scale.  Normalizing divides g1, so F_1, by conj R1 and F_2 by conj R2,
  so R(F_2) by R2, with masses R_k = int_0^a Psi_k: D_norm = D / (conj R1 R2).
* Swap.  Exchanging Psi_1 and Psi_2 gives F_1' = F_2, F_{2,1}' = R(F_1), so
  D' = P2 conj P1 - conj Q1 Q2 = conj D (bars on the coefficients), and
  W'_m vanishes where W_m does.  So the order of L(D) and whether D = 0
  need no swap and no masses: `decide` reads W_m, m < Q = the larger
  degree, up to the first that is nonzero: l_order = Q - 1 - m0.
* For (F, R(F)), D = P conj P - Q conj Q: a real zero of F, or one whose
  conjugate is one too, is a common zero of F and R(F) (ROADMAP item 2).

V vanishes identically.  Put T_r(x) = sum_{i+j=r} (-1)^j Psi_2^(i)(x) g1^(j)(x);
then W_r = T_r(a) - T_r(0).  In the derivative of T_r the inner terms
telescope, T_r' = Psi_2^(r+1) g1 + (-1)^r Psi_2 g1^(r+1), and for r >= Q
both derivatives of order r+1 > Q >= deg Psi_2 vanish, hence W_r = 0 and
V = 0 for every polynomial pair.  `decide` therefore reads only L(D);
`v_symbol` stays as a checked artifact of the paper's construction.

The verdict.  At a common zero z0 != 0 of F_1 and F_{2,1}, (e^{iaz0}, 1)
solves the 2x2 system with rows (P1, Q1) and (P21, Q21) at w0 = 1/z0, so
D(w0) = 0.  If D != 0, z0 is thus algebraic, e^{iaz0} is transcendental
(Hermite-Lindemann), and e^{iaz0} P1(w0) + Q1(w0) = 0 forces P1(w0) =
Q1(w0) = 0, and likewise for P21, Q21: the common nonzero zeros are 1/w0
for the roots w0 of G = gcd(P1, Q1, P21, Q21), each numerator first
divided, exactly, by its power of w (w = 0 is z = infinity).  G is
computed modulo p = PRIME with i -> SQRT_M1 (a ring map Z[i] -> GF(p), as
p = 1 mod 4) on the Gaussian-integer numerators (a denominator is a
constant factor).  Were deg G >= 1, Gauss's lemma would put G and its
cofactors in Z[i][w], and if every input keeps its leading coefficient
mod p, G's image keeps its degree and divides every image.  So a degree-0
image gcd with intact leading coefficients proves G = 1; otherwise Euclid
runs over Q(i).  No low-end zero of an image is stripped: it may come from
a factor w - c of G with p | c.  z = 0 is a common zero iff F_1(0) =
conj R1 and F_{2,1}(0) = R2 both vanish.  So the outcome is NoCommonZeros
when G = 1 and a mass is nonzero, with the certificate (p, SQRT_M1) if the
reduction decided, and otherwise CommonZeros.  With D = 0 no z0 need be
algebraic, and a pair that is not coincident, such as psi_1 = x - x^2,
psi_2 = -1 + 3x - x^2, a = 1 (F_{2,1} = (1 - iz) F_1), is Inconclusive
(ROADMAP 1b).  The monomial family x^m (a-x)^n admits a closed order
formula, cross-validated here against the general expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Optional

import numpy as np

from .exact import GR, GR_ONE, Poly, _frac, from_numerators
# normalize_pair is not called here; perfbench/spans.py wraps symbol.normalize_pair
from .kernel import NormalizedPair, normalize_pair
from .transform import (ClosedTransform, _conjugate, _times_i_powers, closed_form,
                        reflected_transform)


class OrderViolationError(ValueError):
    """deg Psi_1 < deg Psi_2; caller must order the pair first."""


class CoincidenceCaseError(ValueError):
    """n1 = m2 and m1 = n2: zero sets coincide, order formula inapplicable."""


class TieCancellationError(ArithmeticError):
    """Tied candidate orders with cancelling leading coefficients.

    For symmetric pairs (m1 = n1, m2 = n2 with m1 + m2 even) the two
    boundary contributions at degree r cancel exactly and the true order
    of L(D) drops below the max-formula value; the closed form does not
    apply and the caller must fall back to the general expansion.
    """


@dataclass(frozen=True)
class DiffOperator:
    """L(D) = sum_s coeffs[s] D^s; the zero operator has empty coeffs."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(self.coeffs)
        while cs and not cs[-1]:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self) -> Optional[int]:
        """Largest s with nonzero coefficient, or None for the zero operator."""
        return len(self.coeffs) - 1 if self.coeffs else None


def _w(f1: ClosedTransform, f21: ClosedTransform, lo: int, hi: int) -> tuple:
    """W_m = i^m [w^(m+2)] D, D = P1 Q21 - P21 Q1, for lo <= m < hi (module doc)."""
    (p1r, p1i, p1d), (q1r, q1i, q1d) = f1.p, f1.q
    (p2r, p2i, p2d), (q2r, q2i, q2d) = f21.p, f21.q
    n1, n2 = len(p1r), len(p2r)
    den = math.lcm(p1d * q2d, p2d * q1d)
    s_scale, t_scale = den // (p1d * q2d), den // (p2d * q1d)
    dr, di = [], []
    for m in range(lo, hi):
        sr = si = tr = ti = 0
        for k in range(max(0, m - n2 + 1), min(m, n1 - 1) + 1):
            j = m - k
            sr += p1r[k] * q2r[j] - p1i[k] * q2i[j]
            si += p1r[k] * q2i[j] + p1i[k] * q2r[j]
            tr += p2r[j] * q1r[k] - p2i[j] * q1i[k]
            ti += p2r[j] * q1i[k] + p2i[j] * q1r[k]
        dr.append(sr * s_scale - tr * t_scale)
        di.append(si * s_scale - ti * t_scale)
    return from_numerators(*_times_i_powers(dr, di, den, lo))


def _equal(left, right, conjugate: bool = False) -> bool:
    """left = c right (c conj right if `conjugate`) for a constant c != 0, on
    integer triples (module doc: mirror tests); missing entries count as 0."""
    (lr, li, _), (rr, ri, _) = left, _conjugate(right) if conjugate else right
    rows = list(zip_longest(lr, li, rr, ri, fillvalue=0))
    x0, y0, u0, v0 = next((row for row in rows if any(row)), (0, 0, 0, 0))
    # left_k right_0 == right_k left_0 at the first nonzero row
    return bool((x0 or y0) and (u0 or v0)) and all(
        x * u0 - y * v0 == u * x0 - v * y0 and x * v0 + y * u0 == u * y0 + v * x0
        for x, y, u, v in rows)


def _transforms(pair: NormalizedPair) -> tuple:
    """(F_1, F_{2,1}) of the normalized pair, which must be ordered."""
    if pair.psi1.degree < pair.psi2.degree:
        raise OrderViolationError("requires deg Psi_1 >= deg Psi_2")
    return closed_form(pair.psi1, pair.a), reflected_transform(pair.psi2, pair.a)


def v_symbol(pair: NormalizedPair) -> Poly:
    """Exact symbol V(u): its u^m coefficient is W_{Q+m} / m!."""
    w = _w(*_transforms(pair), pair.psi1.degree, 2 * pair.psi1.degree + 1)
    return Poly(tuple(c * Fraction(1, math.factorial(m)) for m, c in enumerate(w)))


def l_operator(pair: NormalizedPair) -> DiffOperator:
    """Exact coefficients of L(D) = sum_s W_{Q-1-s} D^s."""
    return DiffOperator(tuple(reversed(_w(*_transforms(pair), 0, pair.psi1.degree))))


def monomial_density(m: int, n: int, a) -> Poly:
    """x^m (a - x)^n as an exact polynomial."""
    lin = Poly.of(GR(_frac(a)), GR(-1))
    out = Poly.of(GR_ONE)
    for _ in range(n):
        out = out * lin
    return out.times_x(m)


def monomial_order(m1: int, n1: int, m2: int, n2: int, a) -> tuple:
    """Closed order formula for the monomial family; returns (r, leading).

    r = max(n1 - m2 - 1, m1 - n2 - 1).  The leading coefficient comes from
    the lowest-derivative boundary terms:

        B1 = (-1)^{m1+1} a^{n1+n2} m2! m1!   (left endpoint),
        B2 = (-1)^{n2}   a^{m1+m2} n2! n1!   (right endpoint),

    single term when the candidate orders differ, B1 + B2 in the tie case.
    (Expanding the boundary sums directly gives the (-1)^{m1+1} sign for
    B1; a cruder sign convention would misclassify pairs like
    m1 = n1 = 1, m2 = n2 = 0, where the exact operator is the nonzero
    constant 2.)  The coefficients match the general expansion exactly up
    to the positive normalization factor of the densities, which is
    cross-validated over the full exponent range in the test suite.

    Raises TieCancellationError when B1 + B2 = 0: then the true order
    drops below r and the closed formula does not apply.
    """
    a = _frac(a)
    if min(m1, n1, m2, n2) < 0:
        raise ValueError("exponents must be nonnegative")
    if m1 + n1 < m2 + n2:
        raise OrderViolationError("requires Q1 = m1+n1 >= Q2 = m2+n2")
    if n1 == m2 and m1 == n2:
        raise CoincidenceCaseError("zero sets coincide; order formula inapplicable")
    r1 = n1 - m2 - 1
    r2 = m1 - n2 - 1
    r = max(r1, r2)
    if r < 0:
        raise AssertionError("internal: r < 0 outside the coincidence case")
    b1 = GR(Fraction((-1) ** (m1 + 1)) * a ** (n1 + n2) * math.factorial(m2) * math.factorial(m1))
    b2 = GR(Fraction((-1) ** n2) * a ** (m1 + m2) * math.factorial(n2) * math.factorial(n1))
    if r1 == r2:
        leading = b1 + b2
        if not leading:
            raise TieCancellationError(
                f"boundary contributions cancel at degree {r} for "
                f"(m1,n1,m2,n2)=({m1},{n1},{m2},{n2}); the operator order "
                "is strictly smaller")
    else:
        leading = b1 if r1 > r2 else b2
    return r, leading


#: p = 1 (mod 4), the first such prime above 2^30, and a square root of -1
#: modulo p: i -> SQRT_M1 reduces Z[i] onto GF(p) (module doc: the verdict).
PRIME = 1073741833
SQRT_M1 = 357924867


def _gcd(polys: list, inv, red) -> list:
    """Monic gcd of nonzero ascending coefficient lists (reduced in place)
    over a field, where `inv` inverts a nonzero element and `red` reduces one;
    Euclid, shortest first, stops once the gcd has degree 0."""
    polys = sorted(polys, key=len)
    g = polys[0]
    for f in polys[1:]:
        while f and len(g) > 1:
            c = inv(f[-1])
            while len(g) >= len(f):  # g <- g mod f
                q, shift = red(g[-1] * c), len(g) - len(f)
                for k, y in enumerate(f):
                    g[shift + k] = red(g[shift + k] - q * y)
                while g and not g[-1]:
                    g.pop()
            g, f = f, g
    c = inv(g[-1])
    return [red(x * c) for x in g]


def _laurent_gcd(*triples) -> tuple:
    """(G, certificate): the monic gcd of the triples' polynomials without
    their powers of w, and {p, sqrt_m1} if the reduction mod p proved G = 1."""
    stripped = []
    for re, im, den in triples:
        k = next(k for k, (r, i) in enumerate(zip(re, im)) if r or i)
        stripped.append((re[k:], im[k:], den))
    images = [[(r + SQRT_M1 * i) % PRIME for r, i in zip(re, im)] for re, im, _ in stripped]
    if all(f[-1] for f in images) and len(_gcd(images, lambda x: pow(x, -1, PRIME),
                                               lambda x: x % PRIME)) == 1:
        return (GR_ONE,), {"p": PRIME, "sqrt_m1": SQRT_M1}
    exact = [list(from_numerators(*t)) for t in stripped]
    return tuple(_gcd(exact, lambda x: GR_ONE / x, lambda x: x)), None


OUTCOME_NO_COMMON = "NoCommonZeros"
OUTCOME_COMMON = "CommonZeros"
OUTCOME_COINCIDE = "ZeroSetsCoincide"
OUTCOME_INCONCLUSIVE = "Inconclusive"

#: The one coefficient class: exact Gaussian rationals (reported in `diagnostics`).
COEFF_RATIONAL = "rational"


@dataclass(frozen=True)
class Verdict:
    """The verdict; `transforms` is the spec-order (F_1, F_{2,1}) it was read
    from, kept for the zero locator and not reported."""

    outcome: str
    theorem: str
    no_real_zeros: bool
    no_conjugate_pairs: bool
    diagnostics: dict = field(default_factory=dict)
    transforms: tuple = field(default=(), compare=False, repr=False)

    def to_json(self):
        keys = ("outcome", "theorem", "no_real_zeros", "no_conjugate_pairs", "diagnostics")
        return {k: getattr(self, k) for k in keys}


def decide(psi1: Poly, psi2: Poly, a) -> Verdict:
    """The common-zero verdict for F_1 and F_{2,1}, read from the spec-order
    transforms (module doc); the masses give `normalizers` and decide z = 0.
    `swapped` records deg Psi_1 < deg Psi_2; the structural flags refer to
    the density of higher degree (Psi_2 if swapped)."""
    a = _frac(a)
    transforms = f1, f21 = closed_form(psi1, a), reflected_transform(psi2, a)
    swapped = psi1.degree < psi2.degree
    r1, r2 = psi1.integral(0, a), psi2.integral(0, a)
    diagnostics: dict = {"coeff_class": COEFF_RATIONAL, "swapped": swapped, "normalizers": [
        r.to_json() for r in ((r2, r1) if swapped else (r1, r2))]}

    f = f21 if swapped else f1  # F_2 = c R(F_2) iff F_{2,1} = conj(c) R(F_{2,1})
    asym = not _equal(f.q, f.p, conjugate=True)  # psi(x) != c conj(psi(a-x))
    diagnostics["coincidence"] = coincident = _equal(f21.q, f1.q)  # psi_1 = c conj psi_2(a-x)
    if coincident:
        return Verdict(OUTCOME_COINCIDE, "coincidence case", asym, asym,
                       diagnostics, transforms)

    top = max(psi1.degree, psi2.degree)
    m0 = next((m for m in range(top) if _w(f1, f21, m, m + 1)[0]), None)
    diagnostics["v_is_zero"] = True  # W_r = 0 for r >= Q (module doc)
    diagnostics["l_order"] = None if m0 is None else top - 1 - m0

    if m0 is None:
        diagnostics["reason"] = "D \u2261 0 without coincidence (ROADMAP 1b)"
        return Verdict(OUTCOME_INCONCLUSIVE, "no applicable criterion",
                       asym, asym, diagnostics, transforms)

    g, diagnostics["certificate"] = _laurent_gcd(f1.p, f1.q, f21.p, f21.q)
    origin = not r1 and not r2  # F_1(0) = conj R1, F_{2,1}(0) = R2
    if len(g) == 1 and not origin:
        return Verdict(OUTCOME_NO_COMMON, "Hermite-Lindemann: gcd(P1, Q1, P21, Q21) = 1",
                       asym, asym, diagnostics, transforms)
    zeros = [1 / w for w in np.roots([complex(c) for c in reversed(g)])] + [0j] * origin
    diagnostics["gcd"] = [c.to_json() for c in g]
    diagnostics["common_zeros"] = [{"re": float(z.real), "im": float(z.imag)} for z in zeros]
    return Verdict(OUTCOME_COMMON, "Hermite-Lindemann: 1/w at the roots w of gcd(P1, Q1, "
                   "P21, Q21), and 0 iff both masses vanish", asym, asym, diagnostics, transforms)

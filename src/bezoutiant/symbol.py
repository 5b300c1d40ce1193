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
* Mirror tests, normalized.  Coincidence psi_1 = conj psi_2(a-x) <=>
  F_1 = R(F_2) <=> Q1 = Q21, as Q is g's jet at 0 times fixed units;
  symmetry psi_1 = conj psi_1(a-x) <=> F_1 = R(F_1) <=> Q1 = conj P1.
* Scale.  With masses R_k = int_0^a Psi_k, normalizing divides g1, so F_1,
  by conj R1, and F_2 by conj R2, so R(F_2) by R2: D_norm = D / (conj R1 R2),
  and on the spec's triples the tests read Q1 R2 = Q21 conj R1 and
  Q1 R1 = conj P1 conj R1, compared exactly by cross-multiplying.
* Swap.  Exchanging Psi_1 and Psi_2 gives F_1' = F_2, F_{2,1}' = R(F_1), so
  D' = P2 conj P1 - conj Q1 Q2 = conj D (bars on the coefficients), and
  W'_m vanishes where W_m does.  So the order of L(D) and whether L = 0
  need no swap and no masses: `decide` reads W_m, m < Q = the larger degree.
* For (F, R(F)), D = P conj P - Q conj Q: a real zero of F, or one whose
  conjugate is one too, is a common zero of F and R(F) (ROADMAP item 2).

V vanishes identically.  Put T_r(x) = sum_{i+j=r} (-1)^j Psi_2^(i)(x) g1^(j)(x);
then W_r = T_r(a) - T_r(0).  In the derivative of T_r the inner terms
telescope, T_r' = Psi_2^(r+1) g1 + (-1)^r Psi_2 g1^(r+1), and for r >= Q
both derivatives of order r+1 > Q >= deg Psi_2 vanish, hence W_r = 0 and
V = 0 for every polynomial pair.  `decide` therefore reads only L(D);
`v_symbol` stays as a checked artifact of the paper's construction.

At a common zero z0 != 0 of F_1 and F_{2,1}, (e^{iaz0}, 1) solves the 2x2
system with rows (P1, Q1) and (P21, Q21) at w0 = 1/z0, so D(w0) = 0.
"L != 0" thus proves only that every common nonzero zero z0 is algebraic;
it does not rule z0 out.  The missing step is Hermite-Lindemann (ROADMAP
item 1): e^{iaz0} is then transcendental, so P1, Q1, P21 and Q21 all
vanish at w0, and the common nonzero zeros are the roots of their gcd.

`decide` reports ZeroSetsCoincide for a coincident pair and, for rational
coefficients, NoCommonZeros for every other pair; the order of L(D) is a
diagnostic (`l_order`), and whether L(D) vanishes names the theorem.  That
NoCommonZeros is wrong when the transforms share an algebraic zero:
psi_1 = 1 - 3x + x^2, psi_2 = -5 + 7x + 3x^2 - x^3, a = 1 gives l_order 2,
yet F_1 and F_{2,1} vanish at z = i, and all four Laurent polynomials at
w = -i; the CLI's conflict gate (exit 3) catches it once the zeros are
located.  The masses make the tests scale-free: Psi_2 = c conj Psi_1(a-x)
(then F_{2,1} = c F_1) is coincident, and a density symmetric up to a unit
factor is symmetric.  The monomial family x^m (a-x)^n admits a closed
order formula, cross-validated here against the general expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Optional

from .exact import GR, GR_ONE, Poly, _frac, from_numerators, numerators
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


def _equal(left, right, l_scale=GR_ONE, r_scale=GR_ONE, conjugate: bool = False) -> bool:
    """left l_scale == right r_scale (conj right if `conjugate`) on integer triples,
    by cross-multiplying; missing entries count as 0."""
    (lr, li, ld), (rr, ri, rd) = left, _conjugate(right) if conjugate else right
    (sr, tr), (si, ti), _ = numerators((l_scale, r_scale))  # one denominator, which cancels
    return all((x * sr - y * si) * rd == (u * tr - v * ti) * ld
               and (x * si + y * sr) * rd == (u * ti + v * tr) * ld
               for x, y, u, v in zip_longest(lr, li, rr, ri, fillvalue=0))


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


OUTCOME_NO_COMMON = "NoCommonZeros"
OUTCOME_COINCIDE = "ZeroSetsCoincide"
OUTCOME_INCONCLUSIVE = "Inconclusive"

COEFF_RATIONAL = "rational"
COEFF_NONALGEBRAIC = "nonalgebraic-float"


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


def decide(psi1: Poly, psi2: Poly, a, coeff_class: str = COEFF_RATIONAL) -> Verdict:
    """Render the common-zero verdict for F_1 and F_{2,1}.

    Everything is read from the spec-order transforms and the masses (module
    doc: scale and swap).  `swapped` records deg Psi_1 < deg Psi_2, and the
    structural flags refer to the density of higher degree (Psi_2 if swapped).
    """
    if coeff_class not in (COEFF_RATIONAL, COEFF_NONALGEBRAIC):
        raise ValueError(f"unknown coeff_class {coeff_class!r}")
    a = _frac(a)
    f1, f2 = closed_form(psi1, a), closed_form(psi2, a)
    f21 = f2.reflection()
    transforms = (f1, f21)
    swapped = psi1.degree < psi2.degree
    diagnostics: dict = {"coeff_class": coeff_class, "swapped": swapped}

    r1, r2 = psi1.integral(0, a), psi2.integral(0, a)
    if not r1 or not r2:
        diagnostics["reason"] = "zero-mass density: a density has zero mass on [0, a]"
        return Verdict(OUTCOME_INCONCLUSIVE, "mass condition violated",
                       False, False, diagnostics, transforms)
    diagnostics["normalizers"] = [r.to_json() for r in ((r2, r1) if swapped else (r1, r2))]

    f, r = (f2, r2) if swapped else (f1, r1)
    asym = not _equal(f.q, f.p, r, r.conjugate(), conjugate=True)  # psi(x) != conj(psi(a-x))
    # psi_1(x) == conj(psi_2(a-x)), both normalized
    diagnostics["coincidence"] = coincident = _equal(f1.q, f21.q, r2, r1.conjugate())
    if coincident:
        return Verdict(OUTCOME_COINCIDE, "coincidence case", asym, asym,
                       diagnostics, transforms)

    L = DiffOperator(tuple(reversed(_w(f1, f21, 0, max(psi1.degree, psi2.degree)))))
    diagnostics["v_is_zero"] = True  # W_r = 0 for r >= Q (module doc)
    diagnostics["l_order"] = L.order

    if coeff_class == COEFF_RATIONAL:
        theorem = ("zero operator, exact coefficients" if L.is_zero
                   else "nonnegative operator order")
        return Verdict(OUTCOME_NO_COMMON, theorem, asym, asym, diagnostics, transforms)

    diagnostics["reason"] = "zero symbol with non-algebraic coefficients: no criterion applies"
    return Verdict(OUTCOME_INCONCLUSIVE, "no applicable criterion",
                   asym, asym, diagnostics, transforms)

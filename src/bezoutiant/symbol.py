"""Symbol V(u), differential operator L(D), and the common-zero verdict.

Each transform is an exponential polynomial in w = 1/z,

    F(z) = e^{iaz} P(w) + Q(w),    p_j = -i^j g^(j-1)(a),  q_j = i^j g^(j-1)(0),

with g its density (`transform` module doc).  For the normalized, ordered
pair (Q = deg Psi_1 >= deg Psi_2), P1, Q1 belong to F_1 (density
g1 = conj Psi_1) and P21, Q21 to F_{2,1} = R(F_2), with R(F)(z) =
e^{iaz} conj F(conj z) = (a, conj Q, conj P), all four as integer
numerators (`NormalizedPair.laurent`).  Everything here reads them:

* L and V.  Differentiating Tf a total of Q+1 times gives a differential
  operator L(D) plus a convolution with the symbol V(x - t), with

      L(D) = sum_{s<Q} W_{Q-1-s} D^s,   V(u) = sum_{m<=Q} W_{Q+m} u^m / m!,
      W_m = i^m [w^(m+2)] D,           D = P1 Q21 - P21 Q1.

  W_m is the paper's boundary sum sum_{i+j=m} [(-1)^i g1^(i)(a)
  Psi_2^(j)(a) - (-1)^j Psi_2^(i)(0) g1^(j)(0)]; putting the jets into D
  gives [w^(m+2)] D = (-i)^m W_m.  `l_operator` (m < Q) and `v_symbol`
  (Q <= m <= 2Q) sum only the range they read, on integer numerators over
  one denominator, and apply i^m once per output coefficient.
* Coincidence.  psi_1 = conj psi_2(a-x) <=> F_1 = R(F_2) <=> Q1 = conj P2
  (= Q21): Q is g's jet at 0 times fixed units, and fixes g.
* Symmetry.  psi_1 = conj psi_1(a-x) <=> F_1 = R(F_1) <=> Q1 = conj P1.

Both equalities are exact, compared by cross-multiplying the numerators.
For (F, R(F)), D = P conj P - Q conj Q; a real zero of F, or a zero whose
conjugate is one too, is a common zero of F and R(F) (ROADMAP item 2).

V vanishes identically.  Put T_r(x) = sum_{i+j=r} (-1)^j Psi_2^(i)(x) g1^(j)(x);
then W_r = T_r(a) - T_r(0).  In the derivative of T_r the inner terms
telescope,

    T_r' = Psi_2^(r+1) g1 + (-1)^r Psi_2 g1^(r+1),

so W_r = int_0^a (Psi_2^(r+1) g1 + (-1)^r Psi_2 g1^(r+1)) dt.  For r >= Q
both derivatives of order r+1 > Q >= deg Psi_2 vanish, hence W_r = 0 and
V = 0 for every polynomial pair.  `decide` therefore reads only L(D);
`v_symbol` stays as a checked artifact of the paper's construction.

At a common zero z0 != 0 of F_1 and F_{2,1}, (e^{iaz0}, 1) solves the 2x2
system with rows (P1, Q1) and (P21, Q21) at w0 = 1/z0, so D(w0) = 0.
"L != 0" thus proves only that every common nonzero zero z0 is algebraic;
it does not rule z0 out.  The missing step is Hermite-Lindemann (ROADMAP
item 1): e^{iaz0} is then transcendental, so P1, Q1, P21 and Q21 all
vanish at w0, and the common nonzero zeros are the roots of their gcd.

`decide` reports ZeroSetsCoincide for a coincident normalized pair and,
for rational coefficients, NoCommonZeros for every other pair; the order
of L(D) is a diagnostic (`l_order`), and whether L(D) vanishes names the
theorem.  That NoCommonZeros is wrong when the transforms share an
algebraic zero: psi_1 = 1 - 3x + x^2, psi_2 = -5 + 7x + 3x^2 - x^3, a = 1
gives l_order 2, yet all four Laurent polynomials of the ordered pair
vanish at w = i.  The conflict gate of the CLI (exit 3) catches such a
pair once the zeros are located.  Dividing by the masses makes the tests
scale-free: Psi_2 = c conj Psi_1(a-x) (then F_{2,1} = c F_1) is coincident
once normalized, and a density symmetric up to a unit factor is
symmetric.  The monomial family x^m (a-x)^n admits a closed order
formula, cross-validated here against the general expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exact import GR, GR_ONE, Poly, _frac, from_numerators
from .kernel import NormalizedPair, ZeroMassError, normalize_pair
from .transform import _times_i_powers


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


def _w(pair: NormalizedPair, lo: int, hi: int) -> tuple:
    """W_m = i^m [w^(m+2)] D, D = P1 Q21 - P21 Q1, for lo <= m < hi (module doc)."""
    if pair.psi1.degree < pair.psi2.degree:
        raise OrderViolationError("requires deg Psi_1 >= deg Psi_2")
    (p1r, p1i, p1d), (q1r, q1i, q1d), (p2r, p2i, p2d), (q2r, q2i, q2d) = pair.laurent
    n = len(p1r)
    den = math.lcm(p1d * q2d, p2d * q1d)
    s_scale, t_scale = den // (p1d * q2d), den // (p2d * q1d)
    dr, di = [], []
    for m in range(lo, hi):
        sr = si = tr = ti = 0
        for k in range(max(0, m - n + 1), min(m, n - 1) + 1):
            j = m - k
            sr += p1r[k] * q2r[j] - p1i[k] * q2i[j]
            si += p1r[k] * q2i[j] + p1i[k] * q2r[j]
            tr += p2r[k] * q1r[j] - p2i[k] * q1i[j]
            ti += p2r[k] * q1i[j] + p2i[k] * q1r[j]
        dr.append(sr * s_scale - tr * t_scale)
        di.append(si * s_scale - ti * t_scale)
    return from_numerators(*_times_i_powers(dr, di, den, lo))


def _equal(left, right, conjugate: bool = False) -> bool:
    """left == right (conj right if `conjugate`) on integer triples, by cross-multiplying."""
    (lr, li, ld), (rr, ri, rd) = left, right
    si = -rd if conjugate else rd
    return (all(x * rd == y * ld for x, y in zip(lr, rr))
            and all(x * si == y * ld for x, y in zip(li, ri)))


def v_symbol(pair: NormalizedPair) -> Poly:
    """Exact symbol V(u): its u^m coefficient is W_{Q+m} / m!."""
    w = _w(pair, pair.psi1.degree, 2 * pair.psi1.degree + 1)
    return Poly(tuple(c * Fraction(1, math.factorial(m)) for m, c in enumerate(w)))


def l_operator(pair: NormalizedPair) -> DiffOperator:
    """Exact coefficients of L(D) = sum_s W_{Q-1-s} D^s."""
    return DiffOperator(tuple(reversed(_w(pair, 0, pair.psi1.degree))))


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
    """The verdict; `pair` is the normalized, ordered pair it was read from
    (None when a mass vanishes), kept for the kernel and not reported."""

    outcome: str
    theorem: str
    no_real_zeros: bool
    no_conjugate_pairs: bool
    diagnostics: dict = field(default_factory=dict)
    pair: Optional[NormalizedPair] = field(default=None, compare=False, repr=False)

    def to_json(self):
        keys = ("outcome", "theorem", "no_real_zeros", "no_conjugate_pairs", "diagnostics")
        return {k: getattr(self, k) for k in keys}


def decide(psi1: Poly, psi2: Poly, a, coeff_class: str = COEFF_RATIONAL) -> Verdict:
    """Render the common-zero verdict for F_1 and F_{2,1}.

    The pair is normalized and ordered internally (deg Psi_1 >= deg Psi_2,
    swap recorded in diagnostics); the structural flags always refer to the
    F_1 of the ordered pair.
    """
    if coeff_class not in (COEFF_RATIONAL, COEFF_NONALGEBRAIC):
        raise ValueError(f"unknown coeff_class {coeff_class!r}")
    a = _frac(a)
    diagnostics: dict = {"coeff_class": coeff_class, "swapped": psi1.degree < psi2.degree}
    if diagnostics["swapped"]:
        psi1, psi2 = psi2, psi1

    try:
        pair = normalize_pair(psi1, psi2, a)
    except ZeroMassError as exc:
        diagnostics["reason"] = f"zero-mass density: {exc}"
        return Verdict(OUTCOME_INCONCLUSIVE, "mass condition violated",
                       False, False, diagnostics)
    diagnostics["normalizers"] = [pair.r1.to_json(), pair.r2.to_json()]

    p1, q1, _, q21 = pair.laurent
    asym = not _equal(q1, p1, conjugate=True)  # psi_1(x) != conj(psi_1(a-x))
    diagnostics["coincidence"] = coincident = _equal(q1, q21)  # psi_1(x) == conj(psi_2(a-x))
    if coincident:
        return Verdict(OUTCOME_COINCIDE, "coincidence case", asym, asym,
                       diagnostics, pair)

    L = l_operator(pair)
    diagnostics["v_is_zero"] = True  # W_r = 0 for r >= Q (module doc)
    diagnostics["l_order"] = L.order

    if coeff_class == COEFF_RATIONAL:
        theorem = ("zero operator, exact coefficients" if L.is_zero
                   else "nonnegative operator order")
        return Verdict(OUTCOME_NO_COMMON, theorem, asym, asym, diagnostics, pair)

    diagnostics["reason"] = "zero symbol with non-algebraic coefficients: no criterion applies"
    return Verdict(OUTCOME_INCONCLUSIVE, "no applicable criterion",
                   asym, asym, diagnostics, pair)

"""Symbol V(u), differential operator L(D), and the common-zero verdict.

Differentiating Tf a total of Q+1 times (Q = deg Psi_1 >= deg Psi_2)
produces a differential operator L(D) plus a convolution with the symbol
V(x - t).  The verdict does not read L(D): `decide` reports
ZeroSetsCoincide when the normalized pair passes the coincidence test
psi_1(x) = conj(psi_2(a - x)) and, for rational coefficients, NoCommonZeros
for every other pair.  The order of L(D) is a reported diagnostic
(`l_order`), and whether L(D) vanishes names the theorem.  That
NoCommonZeros is wrong for a pair whose transforms share an algebraic
zero: psi_1 = 1 - 3x + x^2, psi_2 = -5 + 7x + 3x^2 - x^3, a = 1 gives
NoCommonZeros with l_order 2, yet F_1 and the reflected transform F_{2,1}
both vanish at i.  The conflict gate of the CLI (exit 3) catches such a
pair once the zeros are located.  The monomial family x^m (a-x)^n admits a
closed order formula, cross-validated here against the general expansion.

Both L(D) and V come from derivative values of the densities at the two
endpoints, tabulated once per pair as integer numerators
(`NormalizedPair.jets`, one Taylor shift per endpoint and density;
`Poly.jet_numerators`).  With g1 = conj Psi_1 and Q = deg Psi_1, put

    A_k = Psi_2^(k)(0),  B_k = (-1)^(k+1) g1^(k)(0),
    C_k = Psi_2^(k)(a),  E_k = (-1)^k g1^(k)(a),          k = 0..Q,

and W_r = sum_{i+j=r} (A_i B_j + E_i C_j), the bilinear boundary sum.  Then

    L(D) = sum_{s<Q} W_{Q-1-s} D^s,        V(u) = sum_{m<=Q} W_{Q+m} u^m / m!.

The second identity uses h(u) = g1(a-u), whose derivatives satisfy
h^(p)(u) = (-1)^p g1^(p)(a-u), so the reflected products in V are
derivatives of one polynomial and their Taylor coefficients at 0 are E_k.
Each half of W is summed once, on integer numerators over one common
denominator.

V vanishes identically.  Put T_r(x) = sum_{i+j=r} (-1)^j Psi_2^(i)(x) g1^(j)(x);
then W_r = T_r(a) - T_r(0).  In the derivative of T_r the inner terms
telescope,

    T_r' = Psi_2^(r+1) g1 + (-1)^r Psi_2 g1^(r+1),

so W_r = int_0^a (Psi_2^(r+1) g1 + (-1)^r Psi_2 g1^(r+1)) dt.  For r >= Q
both derivatives of order r+1 > Q >= deg Psi_2 vanish, hence W_r = 0 and
V = 0 for every polynomial pair.  `decide` therefore reads only L(D);
`v_symbol` stays as a checked artifact of the paper's construction.

The verdict reads every exact test from the normalized pair, the same
densities L(D) and the kernel U are built from.  Dividing by the masses
makes the tests scale-free: Psi_2 = c conj Psi_1(a-x) for a constant c
(then F_{2,1} = c F_1) leaves normalized densities with
psi_1 = conj psi_2(a-x), the coincidence case, and a density symmetric up
to a unit factor is symmetric once normalized.  Both mirror tests read
the same jets as L(D), since two polynomials agree iff all their
derivatives at 0 do:

    coincident  <=>  g1^(k)(0) = (-1)^k Psi_2^(k)(a)       for all k,
    symmetric   <=>  g1^(k)(0) = (-1)^k conj g1^(k)(a)     for all k,

compared by cross-multiplying the integer numerators (`_mirrored`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exact import GR, GR_ONE, Poly, _frac, from_numerators
from .kernel import NormalizedPair, ZeroMassError, normalize_pair


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


def _boundary_sums(pair: NormalizedPair, lo: int, hi: int) -> tuple:
    """W_r = sum_{i+j=r} [A_i B_j + E_i C_j] for lo <= r < hi (see module doc)."""
    (ar, ai, ad), (br, bi, bd), (cr, ci, cd), (er, ei, ed) = pair.jets
    # B_k = (-1)^(k+1) g1^(k)(0), E_k = (-1)^k g1^(k)(a)
    br, bi = ([v if k % 2 else -v for k, v in enumerate(vs)] for vs in (br, bi))
    er, ei = ([-v if k % 2 else v for k, v in enumerate(vs)] for vs in (er, ei))
    n = len(ar)
    # both halves over lcm(ad bd, cd ed): the jets at a differ from those at
    # 0 by powers of a's denominator, so this is cd ed, not all four dens
    den = math.lcm(ad * bd, cd * ed)
    s_scale, t_scale = den // (ad * bd), den // (cd * ed)
    wr, wi = [], []
    for r in range(lo, hi):
        sr = si = tr = ti = 0
        for i in range(max(0, r - n + 1), min(r, n - 1) + 1):
            j = r - i
            sr += ar[i] * br[j] - ai[i] * bi[j]
            si += ar[i] * bi[j] + ai[i] * br[j]
            tr += er[i] * cr[j] - ei[i] * ci[j]
            ti += er[i] * ci[j] + ei[i] * cr[j]
        wr.append(sr * s_scale + tr * t_scale)
        wi.append(si * s_scale + ti * t_scale)
    return from_numerators(wr, wi, den)


def _mirrored(left, right, conjugate: bool) -> bool:
    """left^(k)(0) == (-1)^k right^(k)(a) for every k, on two jet triples of
    `NormalizedPair.jets`; with conjugate=True, conj right^(k)(a)."""
    (lr, li, ld), (rr, ri, rd) = left, right
    for k in range(len(lr)):
        sr = -rd if k % 2 else rd
        si = -sr if conjugate else sr
        if lr[k] * sr != rr[k] * ld or li[k] * si != ri[k] * ld:
            return False
    return True


def v_symbol(pair: NormalizedPair) -> Poly:
    """Exact symbol V(u): its u^m coefficient is W_{Q+m} / m!."""
    q1, q2 = pair.psi1.degree, pair.psi2.degree
    if q1 < q2:
        raise OrderViolationError("requires deg Psi_1 >= deg Psi_2")
    w = _boundary_sums(pair, q1, 2 * q1 + 1)
    return Poly(tuple(c * Fraction(1, math.factorial(m)) for m, c in enumerate(w)))


def l_operator(pair: NormalizedPair) -> DiffOperator:
    """Exact coefficients of L(D) = sum_s W_{Q-1-s} D^s."""
    q1, q2 = pair.psi1.degree, pair.psi2.degree
    if q1 < q2:
        raise OrderViolationError("requires deg Psi_1 >= deg Psi_2")
    return DiffOperator(tuple(reversed(_boundary_sums(pair, 0, q1))))


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
        return {
            "outcome": self.outcome,
            "theorem": self.theorem,
            "no_real_zeros": self.no_real_zeros,
            "no_conjugate_pairs": self.no_conjugate_pairs,
            "diagnostics": self.diagnostics,
        }


def decide(psi1: Poly, psi2: Poly, a, coeff_class: str = COEFF_RATIONAL) -> Verdict:
    """Render the common-zero verdict for F_1 and F_{2,1}.

    The pair is normalized and ordered internally (deg Psi_1 >= deg Psi_2,
    swap recorded in diagnostics); the structural flags always refer to the
    F_1 of the ordered pair.
    """
    if coeff_class not in (COEFF_RATIONAL, COEFF_NONALGEBRAIC):
        raise ValueError(f"unknown coeff_class {coeff_class!r}")
    a = _frac(a)
    diagnostics: dict = {"coeff_class": coeff_class, "swapped": False}

    swapped = psi1.degree < psi2.degree
    if swapped:
        psi1, psi2 = psi2, psi1
        diagnostics["swapped"] = True

    try:
        pair = normalize_pair(psi1, psi2, a)
    except ZeroMassError as exc:
        diagnostics["reason"] = f"zero-mass density: {exc}"
        return Verdict(OUTCOME_INCONCLUSIVE, "mass condition violated",
                       False, False, diagnostics)
    diagnostics["normalizers"] = [pair.r1.to_json(), pair.r2.to_json()]

    _, g1_0, psi2_a, g1_a = pair.jets
    asym = not _mirrored(g1_0, g1_a, conjugate=True)  # psi_1(x) != conj(psi_1(a-x))
    coincident = _mirrored(g1_0, psi2_a, conjugate=False)  # psi_1(x) == conj(psi_2(a-x))
    diagnostics["coincidence"] = coincident
    if coincident:
        return Verdict(OUTCOME_COINCIDE, "coincidence case", asym, asym,
                       diagnostics, pair)

    L = l_operator(pair)
    diagnostics["v_is_zero"] = True  # W_r = 0 for r >= Q (module doc)
    diagnostics["l_order"] = L.order

    if coeff_class == COEFF_RATIONAL:
        if not L.is_zero:
            theorem = "nonnegative operator order"
        else:
            theorem = "zero operator, exact coefficients"
        return Verdict(OUTCOME_NO_COMMON, theorem, asym, asym, diagnostics, pair)

    diagnostics["reason"] = "zero symbol with non-algebraic coefficients: no criterion applies"
    return Verdict(OUTCOME_INCONCLUSIVE, "no applicable criterion",
                   asym, asym, diagnostics, pair)

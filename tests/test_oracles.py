"""Independent oracles for the exact core.

Jets, moments, the kernel pieces, L(D) and V(u) are each recomputed
from their textbook definitions with sympy (symbolic derivatives and
integrals) and compared exactly on hypothesis-generated densities.

The verdict is compared with gcd(P1, Q1, P21, Q21) over QQ_I, with the
four Laurent numerators built from sympy derivatives of the densities, on
generic, endpoint-zero, shared-zero and rational-factor pairs, with the
package's prime and with p = 13, where most reductions fail and exact
Euclid decides.

Every `Poly` operation is checked against sympy over QQ_I, and its integer
triple for canonical form (den > 0, gcd 1, no trailing zero).

The integer-numerator paths (masses, normalization, jets, L(D)) are also
compared with the direct formulas evaluated one `Fraction` operation at a
time, on densities up to degree 16 with coefficient heights up to 1e6.
"""

from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bezoutiant import symbol
from bezoutiant.exact import GR, GaussianRational, Poly, from_numerators, to_floats
from bezoutiant.kernel import build_kernel, normalize_pair
from bezoutiant.symbol import (OUTCOME_COINCIDE, OUTCOME_COMMON, OUTCOME_INCONCLUSIVE,
                               OUTCOME_NO_COMMON, DiffOperator, decide, l_operator,
                               v_symbol)
from bezoutiant.transform import ClosedTransform

s, u, x, t, w = sp.symbols("s u x t w")

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
gaussians = st.builds(GR, rationals, rationals)
reals = st.builds(GR, rationals)
endpoints = st.sampled_from([Fraction(1), Fraction(7, 3)])
wide_endpoints = st.sampled_from([Fraction(1), Fraction(7, 3), Fraction(1, 2)])


def polys(max_degree):
    return st.lists(st.one_of(gaussians, reals), min_size=1,
                    max_size=max_degree + 1).map(lambda cs: Poly(tuple(cs)))


def sym(c):
    """A Gaussian rational as a sympy number."""
    return sp.Rational(c.re.numerator, c.re.denominator) + sp.I * sp.Rational(
        c.im.numerator, c.im.denominator)


def sym_poly(p: Poly, var):
    return sum((sym(c) * var ** k for k, c in enumerate(p.coeffs)), sp.Integer(0))


def same(lhs, rhs) -> bool:
    return sp.expand(lhs - rhs) == 0


def integrate(expr, lo, hi):
    """int_lo^hi expr ds for a polynomial in s (sympy's polynomial antiderivative)."""
    anti = sp.Poly(sp.expand(expr), s).integrate().as_expr()
    return anti.subs(s, hi) - anti.subs(s, lo)


ORACLE = settings(max_examples=15, deadline=None, derandomize=True)


@ORACLE
@given(polys(6), st.one_of(gaussians, reals))
def test_jet_matches_sympy_derivatives(p, at):
    expr = sym_poly(p, s)
    jet = from_numerators(*p.jet_numerators(at))
    assert len(jet) == p.degree + 1
    for k, value in enumerate(jet):
        assert same(sym(value), sp.diff(expr, s, k).subs(s, sym(at)))


@ORACLE
@given(polys(6), endpoints)
def test_moments_match_sympy_integrals(g, a):
    F = ClosedTransform.from_density(g, a)
    expr = sym_poly(g, s)
    A = sp.Rational(a.numerator, a.denominator)
    assert len(F.moments) == g.degree + 33
    for n in (0, 1, 5, len(F.moments) - 1):
        assert same(sym(F.moments[n]), integrate(s ** n * expr, 0, A))


@ORACLE
@given(polys(5), endpoints)
def test_laurent_coefficients_match_sympy(g, a):
    # F(z) = e^{iaz} sum_j p_j z^-j + sum_j q_j z^-j with
    # p_j = (-1)^(j-1) (-i)^j g^(j-1)(a), q_j = -(-1)^(j-1) (-i)^j g^(j-1)(0)
    F = ClosedTransform.from_density(g, a)
    expr = sym_poly(g, s)
    A = sp.Rational(a.numerator, a.denominator)
    assert len(F.osc) == len(F.plain) == g.degree + 1
    for j in range(1, g.degree + 2):
        d = sp.diff(expr, s, j - 1)
        unit = (-1) ** (j - 1) * (-sp.I) ** j
        assert same(sym(F.osc[j - 1]), unit * d.subs(s, A))
        assert same(sym(F.plain[j - 1]), -unit * d.subs(s, 0))


sr = sp.Symbol("sr", real=True)


def canonical(p: Poly) -> bool:
    """den > 0, gcd(den, re..., im...) = 1 and no trailing zero coefficient."""
    re, im, den = p.triple
    return (len(re) == len(im) and den > 0 and gcd(den, *re, *im) == 1
            and (not re or bool(re[-1] or im[-1])))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(polys(6), polys(6), st.one_of(gaussians, reals).filter(bool),
       st.one_of(gaussians, reals), st.one_of(gaussians, reals), endpoints)
def test_poly_operations_are_canonical_and_match_sympy(p, q, r, c0, c1, a):
    P, Q, R, C0, C1 = sym_poly(p, s), sym_poly(q, s), sym(r), sym(c0), sym(c1)
    A = sp.Rational(a.numerator, a.denominator)
    cases = [
        (Poly.from_json(p.to_json()), P), (Poly(p.coeffs), P),
        (p + q, P + Q), (p - q, P - Q), (p * q, P * Q), (p * r, P * R), (r * p, P * R),
        (p / r, P / R), (p.derivative(), sp.diff(P, s)),
        (p.antiderivative(), integrate(P, 0, s)),
        (p.compose_affine(c0, c1), P.subs(s, C0 + C1 * s)),  # Gaussian shifts included
        (p.reflect(a), sp.conjugate(sym_poly(p, sr).subs(sr, A - sr)).subs(sr, s)),
        (p.conjugate(), sp.conjugate(sym_poly(p, sr)).subs(sr, s)),
        (p.times_x(2), P * s ** 2),
    ]
    for got, want in cases:
        assert canonical(got)
        assert sp.Poly(sym_poly(got, s) - sp.expand(want), s, domain="QQ_I").is_zero
    assert p == Poly(p.coeffs) and hash(p) == hash(Poly(p.coeffs))
    assert same(sym(p(c0)), P.subs(s, C0))
    assert same(sym(p.integral(c0, c1)), integrate(P, C0, C1))
    re, im, den = p.triple
    assert to_floats(re, den, "c") == [float(c.re) for c in p.coeffs]
    assert to_floats(im, den, "c") == [float(c.im) for c in p.coeffs]


def _normalized(psi1, psi2, a):
    assume(psi1.integral(0, a) and psi2.integral(0, a))
    if psi1.degree < psi2.degree:
        psi1, psi2 = psi2, psi1
    return normalize_pair(psi1, psi2, a)


@pytest.mark.parametrize("a", [Fraction(1), Fraction(7, 3)])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(psi1=polys(4), psi2=polys(4))
@example(psi1=Poly.of(1, GR(0, -2), 3, Fraction(1, 2), GR(-1, 1)),
         psi2=Poly.of(2, 0, -1, GR(0, 1), 4))
def test_kernel_pieces_match_sympy_integration(a, psi1, psi2):
    pair = _normalized(psi1, psi2, a)
    k = build_kernel(pair)
    A = sp.Rational(a.numerator, a.denominator)
    p2 = sym_poly(pair.psi2, s)
    g1 = sym_poly(pair.psi1.conjugate(), s)
    integrand = (p2.subs(s, A - s) * g1.subs(s, A - s - x + t)
                 - p2.subs(s, s + x - t) * g1)
    lower = integrate(integrand, t, A)
    upper = integrate(integrand, t, A + t - x)

    def piece(mp):
        return sum((sym(c) * x ** i * t ** j for (i, j), c in mp.terms.items()),
                   sp.Integer(0))

    for got, want in ((k.u_lower, lower), (k.u_upper, upper)):
        assert sp.Poly(piece(got) - want, x, t, domain="QQ_I").is_zero


def _endpoint_derivatives(pair):
    Q = pair.psi1.degree
    A = sp.Rational(pair.a.numerator, pair.a.denominator)
    p2 = sym_poly(pair.psi2, s)
    g1 = sym_poly(pair.psi1.conjugate(), s)
    d2 = [sp.diff(p2, s, k) for k in range(Q + 1)]
    d1 = [sp.diff(g1, s, k) for k in range(Q + 1)]
    return Q, A, d1, d2


@ORACLE
@given(polys(6), polys(6), endpoints)
def test_l_operator_matches_textbook_double_sum(psi1, psi2, a):
    pair = _normalized(psi1, psi2, a)
    Q, A, d1, d2 = _endpoint_derivatives(pair)
    want = []
    for order in range(Q):
        total = sp.Integer(0)
        for p in range(Q - order):
            k = Q - 1 - order - p
            total += (-1) ** (k + 1) * d2[p].subs(s, 0) * d1[k].subs(s, 0)
            total += (-1) ** p * d2[k].subs(s, A) * d1[p].subs(s, A)
        want.append(total)
    while want and sp.expand(want[-1]) == 0:
        want.pop()
    got = l_operator(pair).coeffs
    assert len(got) == len(want)
    assert all(same(sym(c), w) for c, w in zip(got, want))


@ORACLE
@given(polys(5), polys(5), endpoints)
def test_v_symbol_matches_textbook_sum(psi1, psi2, a):
    pair = _normalized(psi1, psi2, a)
    Q, A, d1, d2 = _endpoint_derivatives(pair)
    want = sp.Integer(0)
    for p in range(Q + 1):
        k = Q - p
        want += (-1) ** (k + 1) * d1[k].subs(s, 0) * d2[p].subs(s, u)
        want += (-1) ** p * d2[k].subs(s, A) * d1[p].subs(s, A - u)
    assert same(sym_poly(v_symbol(pair), u), want)


def _laurent_sym(g, A):
    """(P, Q) in w = 1/z of int_0^A e^{izs} g(s) ds for a sympy polynomial g:
    p_j = -i^j g^(j-1)(A), q_j = i^j g^(j-1)(0)."""
    P = Q = sp.Integer(0)
    for j in range(1, sp.degree(g, s) + 2):
        d = sp.diff(g, s, j - 1)
        P -= sp.I ** j * d.subs(s, A) * w ** j
        Q += sp.I ** j * d.subs(s, 0) * w ** j
    return sp.Poly(P, w, domain="QQ_I"), sp.Poly(Q, w, domain="QQ_I")


def oracle_verdict(psi1, psi2, a):
    """(outcome, G ascending or None) from F_1 = int e^{izs} conj psi1(s) ds
    and F_{2,1} = int e^{izs} psi2(a - s) ds."""
    A = sp.Rational(a.numerator, a.denominator)
    g1 = sym_poly(psi1.conjugate(), s)
    g21 = sp.expand(sym_poly(psi2, s).subs(s, A - s))
    p1, q1 = _laurent_sym(g1, A)
    p21, q21 = _laurent_sym(g21, A)
    if (q21 * q1.LC() - q1 * q21.LC()).is_zero:
        return OUTCOME_COINCIDE, None
    if (p1 * q21 - p21 * q1).is_zero:
        return OUTCOME_INCONCLUSIVE, None
    g = reduce(lambda f, h: f.gcd(h), (p1, q1, p21, q21)).terms_gcd()[1].monic()
    origin = integrate(g1, 0, A) == 0 and integrate(g21, 0, A) == 0
    if g.degree() == 0 and not origin:
        return OUTCOME_NO_COMMON, None
    return OUTCOME_COMMON, g.all_coeffs()[::-1]


def _vanishing(h: Poly, a, s0) -> Poly:
    """g = c0 + c1 t + t^2 h with G_x(s0) = sum_k g^(k)(x) s0^k = 0 at x = 0
    and x = a; G_x(s0) = c0 + c1 (x + s0) + H_x(s0) fixes c0 and c1.  Then
    P and Q of g's transform vanish at w0 = -i s0, so it vanishes at i/s0."""
    h = h.times_x(2)

    def big_h(x):
        out, d, power = GR(0), h, Fraction(1)
        while not d.is_zero:
            out, d, power = out + d(x) * power, d.derivative(), power * s0
        return out

    c1 = (big_h(0) - big_h(a)) / a
    return h + Poly.of(-big_h(0) - c1 * s0, c1)


@st.composite
def gcd_pairs(draw):
    """(psi1, psi2, a, s0 or kind): generic pairs, pairs of densities that
    vanish at 0 and a (each Laurent numerator then has a factor w^2), pairs
    whose F_1 and F_{2,1} share the zero i/s0, and rational-factor pairs,
    g21 = g1' + c g1 with g1(0) = g1(a) = 0, so that F_{2,1} = (c - iz) F_1."""
    a = draw(wide_endpoints)
    kind = draw(st.sampled_from(["generic", "endpoint-zero", "shared-zero", "rational-factor"]))
    if kind == "generic":
        psi1, psi2 = draw(polys(5)), draw(polys(5))
    elif kind == "endpoint-zero":
        psi1, psi2 = (draw(polys(3)) * Poly.of(0, a, -1) for _ in range(2))
    elif kind == "shared-zero":
        # s0 = 13: with p = 13 the factor w + i s0 of G reduces to w
        kind = draw(st.sampled_from([Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(13)]))
        g1, g21 = _vanishing(draw(polys(3)), a, kind), _vanishing(draw(polys(3)), a, kind)
        psi1, psi2 = g1.conjugate(), g21.compose_affine(a, -1)
    else:
        g1 = draw(polys(3)) * Poly.of(0, a, -1)
        psi1, psi2 = g1.conjugate(), (g1.derivative() + g1 * draw(gaussians)).compose_affine(a, -1)
    assume(not psi1.is_zero and not psi2.is_zero)
    return psi1, psi2, a, kind


@pytest.mark.parametrize("prime", [None, (13, 5)], ids=["package-prime", "p13"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(gcd_pairs())
def test_verdict_matches_sympy_gcd(prime, case):
    psi1, psi2, a, s0 = case
    with pytest.MonkeyPatch.context() as mp:
        if prime:  # 5^2 = -1 (mod 13)
            mp.setattr(symbol, "PRIME", prime[0])
            mp.setattr(symbol, "SQRT_M1", prime[1])
        v = decide(psi1, psi2, a)
        reduced = {"p": symbol.PRIME, "sqrt_m1": symbol.SQRT_M1}
    outcome, g = oracle_verdict(psi1, psi2, a)
    assert v.outcome == outcome
    if s0 == "rational-factor":
        assert outcome == OUTCOME_INCONCLUSIVE
    if outcome in (OUTCOME_NO_COMMON, OUTCOME_COMMON):
        assert v.diagnostics["certificate"] in (None, reduced)
    if outcome == OUTCOME_COMMON:
        got = [sym(GaussianRational.from_json(c)) for c in v.diagnostics["gcd"]]
        assert len(got) == len(g) and all(same(c, d) for c, d in zip(got, g))
        if isinstance(s0, Fraction):  # the shared zero: G(-i s0) = 0
            assert same(sp.Poly(g[::-1], w).eval(-sp.I * sp.Rational(s0)), 0)


# -- Fraction-by-Fraction references for the integer-numerator paths --------

@st.composite
def tall_polys(draw, max_degree=16):
    """Real or Gaussian densities of degree <= 16, coefficient height 6 or 1e6."""
    h = draw(st.sampled_from([6, 10 ** 6]))
    part = st.builds(Fraction, st.integers(-h, h), st.integers(1, h))
    gaussian = draw(st.booleans())
    n = draw(st.integers(0, max_degree))
    return Poly(tuple(GR(draw(part), draw(part) if gaussian else 0) for _ in range(n + 1)))


def horner_ref(coeffs, x):
    acc = GR(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integral_ref(p, lo, hi):
    """Antiderivative c_k / (k+1) t^(k+1), then two Horner passes."""
    anti = [GR(0)] + [c * Fraction(1, k + 1) for k, c in enumerate(p.coeffs)]
    return horner_ref(anti, hi) - horner_ref(anti, lo)


def jet_ref(p, x, n):
    """p^(k)(x), k = 0..n: differentiate the coefficient list, then Horner."""
    cs, out = list(p.coeffs), []
    for _ in range(n + 1):
        out.append(horner_ref(cs, x))
        cs = [c * k for k, c in enumerate(cs)][1:]
    return tuple(out)


def normalize_ref(psi1, psi2, a):
    r1, r2 = integral_ref(psi1, 0, a), integral_ref(psi2, 0, a)
    return (Poly(tuple(c * (GR(1) / r1) for c in psi1.coeffs)),
            Poly(tuple(c * (GR(1) / r2) for c in psi2.coeffs)), r1, r2)


def l_operator_ref(psi1, psi2, a):
    """L(D) = sum_s W_{Q-1-s} D^s with W_r = sum_{i+j=r} (A_i B_j + E_i C_j)."""
    q = psi1.degree
    g1 = psi1.conjugate()
    A, C = jet_ref(psi2, 0, q), jet_ref(psi2, a, q)
    B = [v * (-1) ** (k + 1) for k, v in enumerate(jet_ref(g1, 0, q))]
    E = [v * (-1) ** k for k, v in enumerate(jet_ref(g1, a, q))]
    w = [sum((A[i] * B[r - i] + E[i] * C[r - i] for i in range(r + 1)), GR(0))
         for r in range(q)]
    return DiffOperator(tuple(reversed(w)))


NUMERATORS = settings(max_examples=25, deadline=None, derandomize=True)


@NUMERATORS
@given(tall_polys(), st.one_of(wide_endpoints.map(GR), gaussians),
       st.one_of(wide_endpoints.map(GR), gaussians))
def test_integral_matches_fraction_reference(p, lo, hi):
    assert p.integral(lo, hi) == integral_ref(p, lo, hi)
    assert p.integral(0, hi.re) == integral_ref(p, 0, hi.re)


@NUMERATORS
@given(tall_polys(), st.one_of(wide_endpoints, gaussians, reals))
def test_jet_matches_fraction_reference(p, at):
    x = at if isinstance(at, GaussianRational) else GR(at)
    assert from_numerators(*p.jet_numerators(at)) == jet_ref(p, x, p.degree)


@NUMERATORS
@given(tall_polys(), tall_polys(), wide_endpoints)
def test_normalize_and_l_operator_match_fraction_reference(psi1, psi2, a):
    assume(integral_ref(psi1, 0, a) and integral_ref(psi2, 0, a))
    if psi1.degree < psi2.degree:
        psi1, psi2 = psi2, psi1
    pair = normalize_pair(psi1, psi2, a)
    n1, n2, r1, r2 = normalize_ref(psi1, psi2, a)
    assert (pair.psi1, pair.psi2, pair.r1, pair.r2) == (n1, n2, r1, r2)
    assert pair.psi1.integral(0, a) == pair.psi2.integral(0, a) == GR(1)
    assert l_operator(pair) == l_operator_ref(n1, n2, a)

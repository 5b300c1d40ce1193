"""Independent oracles for the exact core.

Jets, moments, the kernel pieces, L(D) and V(u) are each recomputed
from their textbook definitions with sympy (symbolic derivatives and
integrals) and compared exactly on hypothesis-generated densities.

The integer-numerator paths (masses, normalization, jets, L(D)) are also
compared with the direct formulas evaluated one `Fraction` operation at a
time, on densities up to degree 16 with coefficient heights up to 1e6.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bezoutiant.exact import GR, GaussianRational, Poly, from_numerators
from bezoutiant.kernel import build_kernel, normalize_pair
from bezoutiant.symbol import DiffOperator, l_operator, v_symbol
from bezoutiant.transform import ClosedTransform

s, u, x, t = sp.symbols("s u x t")

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

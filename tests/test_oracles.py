"""Independent oracles for the exact core.

Jets, the kernel pieces, L(D) and V(u) are each recomputed
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
compared with the direct formulas evaluated one QQ_I operation at a time,
on densities up to degree 16 with coefficient heights up to 1e6.  The
real-point paths (Taylor shifts by an integer, jets at 0, 2 and 7/3, the
reflection t -> conj p(a - t), masses with real bounds) are compared with
Gaussian-integer shifts and with sums of powers, and the spec literal
reader with the one `Fraction` a literal at a time that it replaced.
"""

import json
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bezoutiant import symbol
from bezoutiant.cli import EXIT_NUMERIC_REFUSAL, main
from sympy.polys.domains import QQ, QQ_I

from bezoutiant.exact import Poly, _shift_real, to_floats
from bezoutiant.kernel import build_kernel, normalize_pair
from bezoutiant.symbol import (OUTCOME_COINCIDE, OUTCOME_COMMON, OUTCOME_NO_COMMON, decide,
                               l_operator, v_symbol)
from bezoutiant.transform import ClosedTransform
from conftest import fractions_of, is_zero, triple_of

s, u, x, t, w = sp.symbols("s u x t w")

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
gaussians = st.tuples(rationals, rationals)
reals = rationals
endpoints = st.sampled_from([Fraction(1), Fraction(7, 3)])
wide_endpoints = st.sampled_from([Fraction(1), Fraction(7, 3), Fraction(1, 2)])


def polys(max_degree):
    return st.lists(st.one_of(gaussians, reals), min_size=1,
                    max_size=max_degree + 1).map(lambda cs: Poly.of(*cs))


def scalar(c) -> tuple:
    """A drawn rational or (re, im) pair as an exact scalar triple."""
    return triple_of(*c) if isinstance(c, tuple) else triple_of(c)


def entries(triple) -> list:
    """The exact scalars (re[k], im[k], den) of an integer triple."""
    re, im, den = triple
    return [(r, m, den) for r, m in zip(re, im)]


def sym(value):
    """An exact scalar (re, im, den), a rational or an (re, im) pair as a sympy number."""
    if not isinstance(value, tuple):
        return sp.Rational(value)
    if len(value) == 2:
        return sp.Rational(value[0]) + sp.I * sp.Rational(value[1])
    re, im, den = value
    return sp.Rational(re, den) + sp.I * sp.Rational(im, den)


def sym_poly(p: Poly, var):
    return sum((sym(c) * var ** k for k, c in enumerate(entries(p.triple))), sp.Integer(0))


def same(lhs, rhs) -> bool:
    return sp.expand(lhs - rhs) == 0


def integrate(expr, lo, hi):
    """int_lo^hi expr ds for a polynomial in s (sympy's polynomial antiderivative)."""
    anti = sp.Poly(sp.expand(expr), s).integrate().as_expr()
    return anti.subs(s, hi) - anti.subs(s, lo)


ORACLE = settings(max_examples=15, deadline=None, derandomize=True)


@ORACLE
@given(polys(6), reals)
def test_jet_matches_sympy_derivatives(p, at):
    expr = sym_poly(p, s)
    jet = entries(p.jet_numerators(at))
    assert len(jet) == p.degree + 1
    for k, value in enumerate(jet):
        assert same(sym(value), sp.diff(expr, s, k).subs(s, sym(at)))


@ORACLE
@given(polys(5), endpoints)
def test_laurent_coefficients_match_sympy(g, a):
    # F(z) = e^{iaz} sum_j p_j z^-j + sum_j q_j z^-j with
    # p_j = (-1)^(j-1) (-i)^j g^(j-1)(a), q_j = -(-1)^(j-1) (-i)^j g^(j-1)(0)
    F = ClosedTransform.from_density(g, a)
    expr = sym_poly(g, s)
    A = sp.Rational(a.numerator, a.denominator)
    osc, plain = entries(F.p), entries(F.q)
    assert len(osc) == len(plain) == g.degree + 1
    for j in range(1, g.degree + 2):
        d = sp.diff(expr, s, j - 1)
        unit = (-1) ** (j - 1) * (-sp.I) ** j
        assert same(sym(osc[j - 1]), unit * d.subs(s, A))
        assert same(sym(plain[j - 1]), -unit * d.subs(s, 0))


sr = sp.Symbol("sr", real=True)


def canonical(p: Poly) -> bool:
    """den > 0, gcd(den, re..., im...) = 1 and no trailing zero coefficient."""
    re, im, den = p.triple
    return (len(re) == len(im) and den > 0 and gcd(den, *re, *im) == 1
            and (not re or bool(re[-1] or im[-1])))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(polys(6), polys(6), st.one_of(gaussians, reals).map(scalar).filter(lambda v: not is_zero(v)),
       st.one_of(gaussians, reals), reals, reals, endpoints)
def test_poly_operations_are_canonical_and_match_sympy(p, q, r, c0, lo, hi, a):
    P, Q, R, C0 = sym_poly(p, s), sym_poly(q, s), sym(r), sym(c0)
    A = sp.Rational(a.numerator, a.denominator)
    cases = [
        (Poly.from_json(p.to_json()), P), (Poly.of(*fractions_of(p.triple)), P),
        (p + q, P + Q), (p - q, P - Q), (p * q, P * Q), (p * r, P * R), (r * p, P * R),
        (p / r, P / R), (p.derivative(), sp.diff(P, s)),
        (p.antiderivative(), integrate(P, 0, s)),
        (p.reflect(a), sp.conjugate(sym_poly(p, sr).subs(sr, A - sr)).subs(sr, s)),
        (p.conjugate(), sp.conjugate(sym_poly(p, sr)).subs(sr, s)),
        (p.times_x(2), P * s ** 2),
    ]
    for got, want in cases:
        assert canonical(got)
        assert sp.Poly(sym_poly(got, s) - sp.expand(want), s, domain="QQ_I").is_zero
    same_p = Poly.of(*fractions_of(p.triple))
    assert p == same_p and hash(p) == hash(same_p)
    assert same(sym(p(scalar(c0))), P.subs(s, C0))
    assert same(sym(p.integral(lo, hi)), integrate(P, sym(lo), sym(hi)))
    re, im, den = p.triple
    assert to_floats(re, den, "c") == [float(x) for x, _ in fractions_of(p.triple)]
    assert to_floats(im, den, "c") == [float(y) for _, y in fractions_of(p.triple)]


def _normalized(psi1, psi2, a):
    assume(not is_zero(psi1.integral(0, a)) and not is_zero(psi2.integral(0, a)))
    if psi1.degree < psi2.degree:
        psi1, psi2 = psi2, psi1
    return normalize_pair(psi1, psi2, a)


@pytest.mark.parametrize("a", [Fraction(1), Fraction(7, 3)])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(psi1=polys(4), psi2=polys(4))
@example(psi1=Poly.of(1, (0, -2), 3, Fraction(1, 2), (-1, 1)),
         psi2=Poly.of(2, 0, -1, (0, 1), 4))
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
        den = mp.table[2]
        return sum(((sp.Rational(r, den) + sp.I * sp.Rational(m, den)) * x ** i * t ** j
                    for i, j, r, m in mp.terms), sp.Integer(0))

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
    got = l_operator(pair)
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
    """(outcome, G ascending or r = P21/P1) from F_1 = int e^{izs} conj
    psi1(s) ds and F_{2,1} = int e^{izs} psi2(a - s) ds; r as a sympy
    expression in w, None if it is constant."""
    A = sp.Rational(a.numerator, a.denominator)
    g1 = sym_poly(psi1.conjugate(), s)
    g21 = sp.expand(sym_poly(psi2, s).subs(s, A - s))
    p1, q1 = _laurent_sym(g1, A)
    p21, q21 = _laurent_sym(g21, A)
    if (p1 * q21 - p21 * q1).is_zero:
        r = sp.cancel(p21.as_expr() / p1.as_expr())
        return OUTCOME_COINCIDE, (None if r.free_symbols == set() else r)
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
        out, d, power = QQ_I(0), h, QQ(1)
        while not d.is_zero:
            out, d, power = out + qq(d(x)) * power, d.derivative(), power * to_qq(s0)
        return out

    c1 = (big_h(0) - big_h(a)) * QQ(a.denominator, a.numerator)
    return h + Poly.of(from_qq(-big_h(0) - c1 * to_qq(s0)), from_qq(c1))


@pytest.mark.parametrize("s0", [Fraction(10) ** 400, Fraction(1, 10 ** 400),
                                Fraction(1, 10 ** 320)], ids=["1e-400", "1e400", "1e320"])
def test_common_zero_beyond_float_range_is_a_refusal(tmp_path, s0):
    # the shared zero i/s0: G = w + i s0 overflows as a float (1e-400), or G's
    # root w rounds to 0.0 (1e400) or 1/w overflows (1e320): exit 4, with a
    # strict-JSON report whose error names the verdict
    a = Fraction(1)
    g1, g21 = _vanishing(Poly.of(1, 2, 3), a, s0), _vanishing(Poly.of(2, -1, 1), a, s0)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"a": "1", "psi1": g1.conjugate().to_json(),
                                "psi2": g21.reflect(a).conjugate().to_json()}))
    out = tmp_path / "out.json"
    assert main(["decide", "--input", str(spec), "--output", str(out)]) == EXIT_NUMERIC_REFUSAL
    report = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert report["error"]["stage"] == "verdict"
    assert report["error"]["type"] == "FloatRangeError" and "verdict" not in report


@st.composite
def gcd_pairs(draw):
    """(psi1, psi2, a, s0 or kind): generic pairs, pairs of densities that
    vanish at 0 and a (each Laurent numerator then has a factor w^2), pairs
    whose F_1 and F_{2,1} share the zero i/s0, rational-factor pairs,
    g21 = g1' + c g1 with g1(0) = g1(a) = 0, so that F_{2,1} = (c - iz) F_1,
    and rational-ratio pairs g1 = q(D) g0, g21 = p(D) g0 for polynomials p,
    q of degree <= 3 and g0 with a triple zero at 0 and a, so that
    F_{2,1} = p(-iz) / q(-iz) F_1."""
    a = draw(wide_endpoints)
    kind = draw(st.sampled_from(["generic", "endpoint-zero", "shared-zero", "rational-factor",
                                 "rational-ratio"]))
    if kind == "generic":
        psi1, psi2 = draw(polys(5)), draw(polys(5))
    elif kind == "endpoint-zero":
        psi1, psi2 = (draw(polys(3)) * Poly.of(0, a, -1) for _ in range(2))
    elif kind == "shared-zero":
        # s0 = 13: with p = 13 the factor w + i s0 of G reduces to w
        kind = draw(st.sampled_from([Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(13)]))
        g1, g21 = _vanishing(draw(polys(3)), a, kind), _vanishing(draw(polys(3)), a, kind)
        psi1, psi2 = g1.conjugate(), g21.reflect(a).conjugate()  # psi2(t) = g21(a - t)
    elif kind == "rational-factor":
        g1 = draw(polys(3)) * Poly.of(0, a, -1)
        g21 = g1.derivative() + g1 * scalar(draw(gaussians))
        psi1, psi2 = g1.conjugate(), g21.reflect(a).conjugate()
    else:  # the transform of g0^(k) is (-iz)^k F_0 for k <= 3
        g0 = draw(polys(2)) * Poly.of(0, a, -1) * Poly.of(0, a, -1) * Poly.of(0, a, -1)
        derivatives = [g0, g0.derivative(), g0.derivative().derivative(),
                       g0.derivative().derivative().derivative()]
        g1, g21 = (sum((d * scalar(draw(gaussians)) for d in derivatives[:draw(st.integers(1, 4))]),
                       Poly.of(0)) for _ in range(2))
        psi1, psi2 = g1.conjugate(), g21.reflect(a).conjugate()
    assume(not psi1.is_zero and not psi2.is_zero)
    return psi1, psi2, a, kind


@pytest.mark.parametrize("prime", [None, 13], ids=["package-prime", "p13"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(gcd_pairs())
def test_verdict_matches_sympy_gcd(prime, case):
    # from the start prime 13 up, leading coefficients and gcd degrees are
    # often lost mod p, so the search skips primes and combines several
    psi1, psi2, a, s0 = case
    with pytest.MonkeyPatch.context() as mp:
        if prime:
            mp.setattr(symbol, "PRIME", prime)
        start = symbol.PRIME
        v = decide(psi1, psi2, a)
    outcome, g = oracle_verdict(psi1, psi2, a)
    assert v.outcome == outcome
    if outcome == OUTCOME_COINCIDE:  # g is r = P21/P1, None if constant
        assert v.diagnostics["coincidence"] == (g is None)
        if g is not None:
            ratio = v.diagnostics["ratio"]
            n, d = (sym_poly(Poly.from_json(ratio[k]), w) for k in ("n", "d"))
            assert sp.simplify(n / d - g) == 0
            # zeros and poles of r(1/z): 1/w at the nonzero roots of r's numerator
            # and denominator, and 0 if their degrees differ (r at w = infinity);
            # a multiple root has a float error near eps^(1/m)
            top, bottom = (sp.Poly(e, w) for e in sp.fraction(sp.cancel(g)))
            want = [1 / complex(x) for e in (top, bottom)
                    for x in e.terms_gcd()[1].nroots(maxsteps=500)]
            want += [0j] * (top.degree() != bottom.degree())
            got = [complex(z["re"], z["im"]) for z in v.diagnostics["exceptional_zeros"]]
            assert len(got) == len(want)
            assert all(min(abs(z - u) for u in got) <= 1e-4 * (1 + abs(z)) for z in want)
    if s0 == "rational-factor":  # F_{2,1} = (c - iz) F_1: r = c - i/w = (c w - i)/w
        c = sp.simplify(g + sp.I / w)
        assert outcome == OUTCOME_COINCIDE and not c.free_symbols
        # r(1/z) = c - iz vanishes at z = -i c (at z = 0 when c = 0: deg n < deg d)
        (z,) = v.diagnostics["exceptional_zeros"]
        want = complex(-sp.I * c)
        assert abs(complex(z["re"], z["im"]) - want) <= 1e-12 * (1 + abs(want))
    if outcome in (OUTCOME_NO_COMMON, OUTCOME_COMMON):
        cert = v.diagnostics["certificate"]
        assert cert is None or (cert["p"] >= start and sp.isprime(cert["p"])
                                and pow(cert["sqrt_m1"], 2, cert["p"]) == cert["p"] - 1)
        assert (cert is None) == (len(v.diagnostics.get("gcd", ["1"])) > 1)
    if outcome == OUTCOME_COMMON:
        got = [sym(c) for c in entries(Poly.from_json(v.diagnostics["gcd"]).triple)]
        assert len(got) == len(g) and all(same(c, d) for c, d in zip(got, g))
        if isinstance(s0, Fraction):  # the shared zero: G(-i s0) = 0
            assert same(sp.Poly(g[::-1], w).eval(-sp.I * sp.Rational(s0)), 0)


@st.composite
def planted_gcds(draw):
    """Four Gaussian-rational polynomials G C_k w^(e_k): G monic of degree 1-4
    with parts of height up to 1e40, cofactors C_k of degree <= 12."""
    part = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))
    g = Poly.of(*draw(st.lists(st.tuples(part, part), min_size=1, max_size=4)), 1)
    cofactors = [draw(polys(12)) for _ in range(4)]
    assume(not any(c.is_zero for c in cofactors))
    return [g * c.times_x(draw(st.integers(0, 3))) for c in cofactors]


def test_laurent_gcd_matches_sympy_gcd():
    # the parts of G need about 270 bits: several primes, combined by CRT
    primes = []

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(planted_gcds())
    def check(inputs):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            modulus = symbol._modulus
            mp.setattr(symbol, "_modulus", lambda n: calls.append(n) or modulus(n))
            g, cert, coprime = symbol._laurent_gcd(*(f.triple for f in inputs))
        primes.append(len(calls))
        want = reduce(lambda f, h: f.gcd(h), (sp.Poly(sym_poly(f, w), w, domain="QQ_I")
                                              for f in inputs)).terms_gcd()[1].monic()
        assert (cert is None) == (want.degree() > 0)
        assert coprime is None  # the first two share G, of degree >= 1
        assert g.degree == want.degree()
        assert all(same(sym(c), d) for c, d in zip(entries(g.triple), want.all_coeffs()[::-1]))
        # the division that accepts G refuses (w + 2) G: w + 2 is prime to w
        # and does not divide the gcd G
        assert all(symbol._divides(g.triple[:2], f.triple[:2]) for f in inputs)
        bumped = (g * Poly.of(2, 1)).triple[:2]
        assert not all(symbol._divides(bumped, f.triple[:2]) for f in inputs)

    check()
    assert max(primes) >= 3
    # `coprime` is the certificate only when the first two alone have an image
    # gcd of degree 0: not for w + 1 and w^2 - 1, though all four have gcd 1
    tail = (Poly.of(5, 1), Poly.of(7, 1))
    for first, alone in (((Poly.of(2, 1), Poly.of(3, 1)), True),
                         ((Poly.of(1, 1), Poly.of(-1, 0, 1)), False)):
        g, cert, coprime = symbol._laurent_gcd(*(f.triple for f in (*first, *tail)))
        assert g.degree == 0 and cert and (coprime == cert) == alone


@pytest.mark.parametrize("start", [symbol.PRIME, 13], ids=["package-prime", "p13"])
def test_modulus_primes_match_sympy(start):
    # the trial-division search steps through the same primes p = 1 (mod 4)
    # as sympy's primality test, each with a square root of -1 mod p
    n = start
    for _ in range(60):
        p, s = symbol._modulus(n)
        assert p == next(q for q in range(n, 2 * n, 4) if sp.isprime(q))
        assert pow(s, 2, p) == p - 1
        n = p + 4


def test_trial_division_matches_sympy():
    assert [n for n in range(2, 5000) if symbol._is_prime(n)] == list(sp.primerange(2, 5000))
    # composites whose least factor is isqrt(n) or just below it: the last
    # divisor tried is isqrt(n) itself
    for q in (32749, 46337, 65521):
        r = sp.nextprime(q)
        assert not symbol._is_prime(q * q) and not symbol._is_prime(q * r)
        assert symbol._is_prime(r) and sp.isprime(r)


# -- QQ_I references for the integer-numerator paths ------------------------

@st.composite
def tall_polys(draw, max_degree=16):
    """Real or Gaussian densities of degree <= 16, coefficient height 6 or 1e6."""
    h = draw(st.sampled_from([6, 10 ** 6]))
    part = st.builds(Fraction, st.integers(-h, h), st.integers(1, h))
    gaussian = draw(st.booleans())
    n = draw(st.integers(0, max_degree))
    return Poly.of(*((draw(part), draw(part) if gaussian else 0) for _ in range(n + 1)))


def to_qq(x):
    """A rational as an element of QQ_I."""
    x = Fraction(x)
    return QQ_I(QQ(x.numerator, x.denominator))


def qq(value):
    """The exact scalar (re, im, den) as an element of QQ_I."""
    re, im, den = value
    return QQ_I(QQ(re, den), QQ(im, den))


def from_qq(c) -> tuple:
    """An element of QQ_I as an (re, im) pair of Fractions."""
    return Fraction(c.x.numerator, c.x.denominator), Fraction(c.y.numerator, c.y.denominator)


def canonical_value(value) -> bool:
    """den > 0 and gcd(re, im, den) = 1."""
    return value[2] > 0 and gcd(*value) == 1


def horner_ref(coeffs, x):
    acc = QQ_I(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integral_ref(p, lo, hi):
    """Antiderivative c_k / (k+1) t^(k+1), then two Horner passes."""
    anti = [QQ_I(0)] + [qq(c) * QQ(1, k) for k, c in enumerate(entries(p.triple), 1)]
    return horner_ref(anti, hi) - horner_ref(anti, lo)


def jet_ref(p, x, n):
    """p^(k)(x), k = 0..n: differentiate the coefficient list, then Horner."""
    cs, out = [qq(c) for c in entries(p.triple)], []
    for _ in range(n + 1):
        out.append(horner_ref(cs, x))
        cs = [c * k for k, c in enumerate(cs)][1:]
    return out


def inverse_ref(r):
    """1 / r = conj r / |r|^2."""
    n = r.x * r.x + r.y * r.y
    return QQ_I(r.x / n, -r.y / n)


def normalize_ref(psi1, psi2, a):
    r1, r2 = integral_ref(psi1, QQ_I(0), to_qq(a)), integral_ref(psi2, QQ_I(0), to_qq(a))
    return (Poly.of(*(from_qq(qq(c) * inverse_ref(r1)) for c in entries(psi1.triple))),
            Poly.of(*(from_qq(qq(c) * inverse_ref(r2)) for c in entries(psi2.triple))), r1, r2)


def l_operator_ref(psi1, psi2, a):
    """L(D) = sum_s W_{Q-1-s} D^s with W_r = sum_{i+j=r} (A_i B_j + E_i C_j)."""
    q = psi1.degree
    g1 = psi1.conjugate()
    A, C = jet_ref(psi2, QQ_I(0), q), jet_ref(psi2, to_qq(a), q)
    B = [v * (-1) ** (k + 1) for k, v in enumerate(jet_ref(g1, QQ_I(0), q))]
    E = [v * (-1) ** k for k, v in enumerate(jet_ref(g1, to_qq(a), q))]
    w = [sum((A[i] * B[r - i] + E[i] * C[r - i] for i in range(r + 1)), QQ_I(0))
         for r in range(q)]
    while w and w[0] == QQ_I(0):  # L(D) ends at its highest nonzero coefficient
        w.pop(0)
    return tuple(triple_of(*from_qq(c)) for c in reversed(w))


NUMERATORS = settings(max_examples=25, deadline=None, derandomize=True)


@NUMERATORS
@given(tall_polys(), st.one_of(wide_endpoints, rationals), st.one_of(wide_endpoints, rationals))
def test_integral_matches_fraction_reference(p, lo, hi):
    for bounds in ((lo, hi), (0, hi)):
        got = p.integral(*bounds)
        assert canonical_value(got) and qq(got) == integral_ref(p, *map(to_qq, bounds))


@NUMERATORS
@given(tall_polys(), st.one_of(wide_endpoints, reals))
def test_jet_matches_fraction_reference(p, at):
    jet = [qq(c) for c in entries(p.jet_numerators(at))]
    assert jet == jet_ref(p, to_qq(at), p.degree)


@NUMERATORS
@given(tall_polys(), tall_polys(), wide_endpoints)
def test_normalize_and_l_operator_match_fraction_reference(psi1, psi2, a):
    assume(integral_ref(psi1, QQ_I(0), to_qq(a)) != QQ_I(0)
           and integral_ref(psi2, QQ_I(0), to_qq(a)) != QQ_I(0))
    if psi1.degree < psi2.degree:
        psi1, psi2 = psi2, psi1
    pair = normalize_pair(psi1, psi2, a)
    n1, n2, r1, r2 = normalize_ref(psi1, psi2, a)
    assert (pair.psi1, pair.psi2, qq(pair.r1), qq(pair.r2)) == (n1, n2, r1, r2)
    assert canonical_value(pair.r1) and canonical_value(pair.r2)
    assert pair.psi1.integral(0, a) == pair.psi2.integral(0, a) == (1, 0, 1)
    assert l_operator(pair) == l_operator_ref(n1, n2, a)


# -- the spec literal reader against the Fraction path ----------------------

def parse_ref(text):
    """A rational literal as the reader read it one `Fraction` at a time:
    any "e" is an exponent, the rest is `Fraction(text.strip())`."""
    if "e" in text.lower():
        raise ValueError(f"bad rational literal {text!r}: no exponent is accepted; "
                         "write an integer, p/q or a plain decimal")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


def read_ref(literals):
    """Poly.from_json's result (or error text) on the Fraction path."""
    try:
        return Poly.of(*(parse_ref(t) for t in literals)).triple
    except ValueError as exc:
        return str(exc)


def read(literals):
    try:
        return Poly.from_json(literals).triple
    except ValueError as exc:
        return str(exc)


LITERALS = ["3/6", "-12/8", "007", "-0/5", " 3 ", "+3", "1_000", "٣", "0.25", "-2", "1/0",
            "3/-4", "--3", "3/", "/3", "1e5", "", "-", "0/0", "1" * 5000, "1/" + "7" * 5000]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.sampled_from(LITERALS),
                          st.text(alphabet="0123456789-+/ ._٣", max_size=7),
                          st.builds("{}/{}".format, st.integers(-10 ** 30, 10 ** 30),
                                    st.integers(1, 10 ** 12))),
                min_size=1, max_size=4))
@example(["3/6", "-12/8", "007", "-0/5", " 3 ", "+3", "1_000", "٣", "0.25"])
@example(["1" * 5000])
def test_literal_reader_matches_fraction_path(literals):
    # same canonical triple for every valid literal, and the same error text
    # (from the first bad literal) otherwise
    assert read(literals) == read_ref(literals)


# -- real points against the general Gaussian path ---------------------------

def gaussian_shift(re, im, xr, xi):
    """In place: the Taylor shift by xr + i xi as Gaussian-integer multiply-adds."""
    n = len(re) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            r, m = re[j + 1], im[j + 1]
            re[j] += xr * r - xi * m
            im[j] += xr * m + xi * r


def jet_gaussian(p, x):
    """p.jet_numerators(x) with the shift run by `gaussian_shift`."""
    (re, im), den = map(list, p.triple[:2]), p.triple[2]
    xr, xd, n = x.numerator, x.denominator, len(re) - 1
    re = [r * xd ** (n - j) for j, r in enumerate(re)]
    im = [m * xd ** (n - j) for j, m in enumerate(im)]
    gaussian_shift(re, im, xr, 0)
    f = 1
    for k in range(1, n + 1):
        f *= k * xd
        re[k], im[k] = re[k] * f, im[k] * f
    return re, im, den * xd ** max(n, 0)


@NUMERATORS
@given(tall_polys(), st.integers(-10 ** 6, 10 ** 6))
def test_real_taylor_shift_matches_gaussian_shift(p, xr):
    for x in (xr, 1, 0):
        re, im = list(p.triple[0]), list(p.triple[1])
        want_re, want_im = re[:], im[:]
        _shift_real(re, x)
        _shift_real(im, x)
        gaussian_shift(want_re, want_im, x, 0)
        assert (re, im) == (want_re, want_im)


@NUMERATORS
@given(tall_polys())
def test_real_jets_match_gaussian_shift(p):
    for x in (Fraction(0), Fraction(2), Fraction(7, 3)):
        want = jet_gaussian(p, x)
        for at in (x,) if x.denominator > 1 else (x, int(x)):
            assert p.jet_numerators(at) == want


@NUMERATORS
@given(tall_polys(), st.sampled_from([Fraction(0), Fraction(2), Fraction(-7, 3)]))
def test_reflect_matches_powers_of_a_minus_t(p, a):
    # conj p(a - t) = sum_k conj(c_k) (a - t)^k, the powers as products
    want, power = Poly.of(), Poly.of(1)
    for c in entries(p.conjugate().triple):
        want = want + power * c
        power = power * Poly.of(a, -1)
    assert p.reflect(a) == want
    assert canonical(p.reflect(a))


@NUMERATORS
@given(tall_polys())
def test_real_integral_matches_gaussian_bounds(p):
    # the integer path over real bounds against the reference with the
    # bounds taken as Gaussian rationals (QQ_I), out to 1e300 and 1e-300
    for a in (1, Fraction(7, 3), Fraction(10 ** 300), Fraction(1, 10 ** 300)):
        got = p.integral(0, a)
        assert canonical_value(got) and qq(got) == integral_ref(p, QQ_I(0), to_qq(a))
        assert p.integral(a, 0) == (-got[0], -got[1], got[2])
        assert qq(p.integral(Fraction(1, 2), a)) == integral_ref(p, to_qq(Fraction(1, 2)), to_qq(a))

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.calculus.quadrature import GaussLegendre

from bezoutiant.cli import ProblemSpec
from bezoutiant.exact import Poly
from bezoutiant.symbol import OUTCOME_COINCIDE, decide
from bezoutiant.transform import (
    SWITCH_RADIUS,
    ClosedTransform,
    EvaluationOverflow,
    closed_form,
    reflected_transform,
)
from bezoutiant.zeros import SearchRect, locate_zeros
from conftest import (
    as_fractions,
    eval_complex,
    fractions_of,
    quadrature_transform,
    random_admissible_poly,
    random_poly,
    transform_of_i_t,
)

FIXTURES = Path(__file__).parent / "fixtures"
ONE = Poly.of(1)
T = Poly.of(0, 1)
TWO_T = Poly.of(0, 2)


def test_closed_form_constant_density():
    Ft = closed_form(ONE, 1)
    assert fractions_of(Ft.p) == [(0, -1)]  # 1/i
    assert fractions_of(Ft.q) == [(0, 1)]   # -1/i
    # its rule integrates t^n, n < 2N, to rounding: mu_n = 1 / (n + 1)
    t, weights, _ = Ft._rule
    moments = [np.sum(weights * t ** n) for n in range(2 * len(t))]
    assert moments == pytest.approx([1 / (n + 1) for n in range(2 * len(t))], rel=1e-15)
    # (e^{iaz} - 1)/(iz) near the origin for large a, where a Taylor series
    # would reach e^{a|z|} before it cancels, were it summed out to |z| = 0.49
    z = np.array([0.49, 0.49j, -0.3 + 0.2j, 0.1, 0.05j])
    for a in (20, 40, 60, 100):
        with mpmath.workdps(40):
            want = np.array([complex(mpmath.expm1(1j * a * mpmath.mpc(v)) / (1j * mpmath.mpc(v)))
                             for v in z])
        got = closed_form(ONE, a).eval_many(z)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), a


def test_closed_form_linear_density():
    # int_0^1 t e^{izt} dt = e^{iz}/(iz) + e^{iz}/z^2 - 1/z^2
    Ft = closed_form(T, 1)
    assert fractions_of(Ft.p) == [(0, -1), (1, 0)]
    assert fractions_of(Ft.q) == [(0, 0), (-1, 0)]
    z = 1.0
    expect = np.exp(1j) / 1j + np.exp(1j) - 1
    assert abs(Ft(z) - expect) < 1e-14


def test_eval_examples():
    Ft = closed_form(ONE, 1)
    assert abs(Ft(2 * math.pi)) < 1e-13
    assert abs(Ft(0) - 1) <= 2 * np.finfo(float).eps  # the rule's sum of weights
    G = closed_form(Poly.of(0, 2, -1), 2)  # t(2-t) on [0, 2]
    # Oracle value computed by quadrature ahead of the build: -4/pi^2.
    assert abs(G(math.pi) - (-4 / math.pi ** 2)) < 1e-12


def test_quadrature_oracle_agreement(rng):
    densities = [ONE, T, TWO_T, Poly.of(0, 2, -1), Poly.of(1, (0, 1), 3)]
    for _ in range(3):
        densities.append(random_admissible_poly(rng, rng.randint(1, 5), 1))
    for psi in densities:
        a = 2 if psi is densities[3] else 1
        Ft = closed_form(psi, a)
        for _ in range(10):
            z = complex(rng.uniform(-30, 30), rng.uniform(-3, 3))
            want = quadrature_transform(psi, a, z)
            got = Ft(z)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _radius(Ft) -> float:
    """The radius r = min(SWITCH_RADIUS, 10/a) inside which `eval_many` sums the rule."""
    return min(SWITCH_RADIUS, 10 / Ft._laurent[0])


def test_switch_circle_consistency():
    # on |z| = r, where `eval_many` switches, the rule and the Laurent form
    # agree on F and on F'
    gauss = (Poly.of(1, (0, 2), -3), F(7, 3))
    for psi, a in ((ONE, 1), (TWO_T, 1), (Poly.of(0, 2, -1), 2), gauss):
        Ft = closed_form(psi, a)
        z = _radius(Ft) * np.exp(1j * np.linspace(0, 2 * math.pi, 17))
        for rule, laurent in zip(Ft._rule_sum(z, True), Ft._laurent_sum(z, Ft._laurent[0], True)):
            assert np.all(np.abs(rule - laurent) < 1e-12)


def _heights(h):
    parts = st.fractions(min_value=-h, max_value=h, max_denominator=h)
    return st.one_of(parts, st.tuples(parts, parts))


# degrees 0..16 and the zero density, real and Gaussian coefficients of
# height 6 or 1e6
densities = st.sampled_from([6, 10 ** 6]).flatmap(
    lambda h: st.lists(_heights(h), max_size=17)).map(lambda cs: Poly.of(*cs))


def _rounded(values) -> np.ndarray:
    """(re, im) pairs of Fractions as complex floats, each part correctly
    rounded (`Fraction.__float__`)."""
    return np.array([complex(float(x), float(y)) for x, y in values], dtype=complex)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(densities, st.sampled_from([F(1), F(7, 3), F(1, 2)]))
@example(Poly.of(), F(1))
@example(Poly.of(*[(F(10 ** 6 - k, 999_983), F(-k, 7)) for k in range(17)]), F(7, 3))
def test_floats_are_complex_of_exact_coefficients(g, a):
    # byte for byte, so the sign of a zero counts: every float is its exact
    # coefficient correctly rounded, part by part
    Ft = ClosedTransform.from_density(g, a)
    a_f, osc, plain = Ft._laurent
    assert a_f == float(a)
    assert osc.tobytes() == (_rounded(fractions_of(Ft.p)) if g.triple[0] else np.array([0j])).tobytes()
    assert plain.tobytes() == (_rounded(fractions_of(Ft.q)) if g.triple[0] else np.array([0j])).tobytes()
    # the rule: Gauss-Legendre nodes on [0, a], and weights times g(t_k),
    # each sample the exact value at the float node, correctly rounded
    # (w_k = a / ((1 - s_k^2) P_N'(s_k)^2) at numpy's Newton-refined nodes s_k)
    t, weights, derivative_weights = Ft._rule
    legendre, n = np.polynomial.legendre, len(t)
    s = legendre.leggauss(n)[0]
    w = a_f / ((1 - s) * (1 + s) * legendre.legval(s, legendre.legder([0] * n + [1])) ** 2)
    assert t.tobytes() == (a_f / 2 * (s + 1)).tobytes()
    samples = _rounded(as_fractions(Ft.density(F(v))) for v in t.tolist())
    assert weights.tobytes() == (w * samples).tobytes()
    assert derivative_weights.tobytes() == (1j * t * weights).tobytes()


def _mp_reference(g: Poly, a, z, terms: int) -> tuple:
    """(F(z), F'(z)) from the series sum_n (iz)^n / n! mu_n, F' with i mu_(n+1),
    cut after `terms` terms, on the exact moments mu_n = int_0^a t^n g, at 40
    digits."""
    def mpc(value):
        re, im, den = value
        return mpmath.mpc(mpmath.mpf(re) / den, mpmath.mpf(im) / den)
    with mpmath.workdps(40):
        mu = [mpc(g.times_x(n).integral(0, a)) for n in range(terms + 1)]
        out = []
        for v in z:
            iz, f, fp = 1j * mpmath.mpc(v.real, v.imag), 0, 0
            for n in range(terms - 1, -1, -1):  # Horner's rule in iz, 1/n! folded in
                f = f * iz / (n + 1) + mu[n]
                fp = fp * iz / (n + 1) + 1j * mu[n + 1]
            out.append((complex(f), complex(fp)))
    return tuple(np.array(part) for part in zip(*out))


def _scales(g: Poly, a, z) -> tuple:
    """S(z) = int_0^a |g(t)| e^{-t Im z} dt and S_1(z), with a factor t, by the
    midpoint rule on 2,000 cells: the scales of F and F'."""
    t = (np.arange(2000) + 0.5) * float(a) / 2000
    y = np.abs(eval_complex(g, t))[:, None] * np.exp(-np.outer(t, z.imag)) * float(a) / 2000
    return y.sum(axis=0), (t[:, None] * y).sum(axis=0)


def test_rule_is_within_1e_12_of_the_scale_inside_the_radius():
    # degrees 0-64 at a = 1, 7/3, 40 and 100; for a >= 40 a Taylor series of
    # the moments, its coefficients correctly rounded, is up to 3.5e-9 S off
    rng = random.Random(37)
    gen = np.random.default_rng(37)
    for degree in range(65):
        for a in (F(1), F(7, 3), F(40), F(100)):
            g = random_poly(rng, degree)
            Ft = ClosedTransform.from_density(g, a)
            r = _radius(Ft)
            radius = 0.99 * r * np.sqrt(gen.uniform(size=4))  # uniform in |z| < 0.99 r
            z = radius * np.exp(2j * math.pi * gen.uniform(size=4))
            f, fp = Ft.eval_many(z, with_derivative=True)
            want, want_p = _mp_reference(g, a, z, 30 + int(5 * float(a) * r))
            s, s1 = _scales(g, a, z)
            assert np.all(np.abs(f - want) <= 1e-12 * s), (degree, a)
            assert np.all(np.abs(fp - want_p) <= 1e-12 * s1), (degree, a)


def test_degree_168_density_near_the_origin_vs_mpmath():
    # every sample is the density's exact value at its node, correctly
    # rounded, at any degree: no n! and no power of 1j is formed
    gen = np.random.default_rng(168)
    g = Poly.of(*[int(c) for c in gen.integers(-6, 7, 168)], 1)
    a = F(7, 3)
    Ft = ClosedTransform.from_density(g, a)
    z = np.array([0.0, 0.1, 0.3j, -0.2 - 0.25j, 0.49 * np.exp(2.5j), -0.45j])
    f, fp = Ft.eval_many(z, with_derivative=True)
    want, want_p = _mp_reference(g, a, z, 60)
    s, s1 = _scales(g, a, z)
    assert np.all(np.abs(f - want) <= 1e-12 * s)
    assert np.all(np.abs(fp - want_p) <= 1e-12 * s1)


def test_rule_built_on_first_small_point(monkeypatch):
    spec = ProblemSpec.from_json(json.loads((FIXTURES / "cubic_vs_quadratic.json").read_text()))
    Ft = closed_form(spec.psi1, spec.a)
    locate_zeros(Ft, SearchRect(-10, 10, -5, 5))
    assert "_laurent" in vars(Ft) and "_rule" not in vars(Ft)
    builds, build = [], np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: builds.append(n) or build(n))
    z = 0.3 * np.exp(0.7j)
    value = Ft(z)
    assert Ft(z) == value and "_rule" in vars(Ft)
    # N = ceil((deg g + M) / 2) nodes, M the first n with (a r)^n / n! <= 2^-64
    x = float(spec.a) * _radius(Ft)
    m = next(n for n in range(1, 200) if x ** n / math.factorial(n) <= 2.0 ** -64)
    assert builds == [math.ceil((Ft.density.degree + m) / 2)]
    # the rule's sum, node by node, as eval_many runs it
    acc = np.zeros(1, dtype=complex)
    for t, w, _ in zip(*Ft._rule):
        acc += w * np.exp(1j * t * np.array([z]))
    assert value == acc[0]


def test_reflection_fixes_constants():
    F21, F1 = reflected_transform(ONE, 1), closed_form(ONE, 1)
    assert fractions_of(F21.p) == fractions_of(F1.p) and fractions_of(F21.q) == fractions_of(F1.q)


def test_reflected_linear_value():
    # psi2 = 2t: F21 is the transform of 2(1-t); at z = 2 pi k it equals i/(pi k)
    F21 = reflected_transform(TWO_T, 1)
    for k in (1, 2, 3):
        z = 2 * math.pi * k
        assert abs(F21(z) - 1j / (math.pi * k)) < 1e-13


def test_reflection_involution_exact(rng):
    for _ in range(10):
        psi = random_admissible_poly(rng, rng.randint(0, 5), 1)
        a = F(rng.randint(1, 3))
        double = psi.reflect(a).conjugate().reflect(a).conjugate()  # psi(a - (a - t))
        assert double == psi
        t1 = ClosedTransform.from_density(psi, a)
        t2 = ClosedTransform.from_density(double, a)
        assert t1.p == t2.p and t1.q == t2.q


def _densities_of_kind(h, gaussian):
    parts = st.fractions(min_value=-h, max_value=h, max_denominator=h)
    coeff = st.tuples(parts, parts) if gaussian else parts
    return st.lists(coeff, min_size=1, max_size=17).map(lambda cs: Poly.of(*cs))


# two densities of degree <= 16, both real or both Gaussian, height 6 or 1e6
density_pairs = st.tuples(st.sampled_from([6, 10 ** 6]), st.booleans()).flatmap(
    lambda kind: st.tuples(_densities_of_kind(*kind), _densities_of_kind(*kind)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(density_pairs, st.sampled_from([F(1), F(7, 3), F(1, 2)]))
def test_reflection_is_the_transform_of_the_reflected_density(psis, a):
    psi1, psi2 = psis
    F1, F21 = closed_form(psi1, a), reflected_transform(psi2, a)
    ref = ClosedTransform.from_density(psi2.reflect(a).conjugate(), a)  # psi2(a - t)
    twice = F1.reflection().reflection()
    for name in ("p", "q"):
        assert fractions_of(getattr(F21, name)) == fractions_of(getattr(ref, name)), name
        assert fractions_of(getattr(twice, name)) == fractions_of(getattr(F1, name)), name
    assert F21.density == ref.density and twice.density == F1.density
    assert F21._laurent[0] == ref._laurent[0]
    for got, want in zip((*F21._laurent[1:], *F21._rule), (*ref._laurent[1:], *ref._rule)):
        assert got.tobytes() == want.tobytes()
    # the verdict reads (and hands on) exactly these two transforms
    got1, got21 = decide(psi1, psi2, a).transforms
    assert (got1.p, got1.q, got21.p, got21.q) == (F1.p, F1.q, F21.p, F21.q)


def test_no_reflected_density_on_transform_paths(monkeypatch):
    # the verdict, both transforms and their evaluation (the rule and the
    # Laurent form) read (a, P, Q) only: no density is composed with a - t
    def refuse(*args):
        raise AssertionError("Poly.reflect called")
    monkeypatch.setattr(Poly, "reflect", refuse)
    z = np.array([0.0, 0.3 - 0.2j, 0.45j, 0.6, 2.0 + 1.0j, -7.5 - 0.3j])
    gauss = (Poly.of(1, (0, 2), -3, (1, 1)), Poly.of(F(1, 2), (1, -1)), F(7, 3))
    for psi1, psi2, a in ((ONE, TWO_T, 1), (TWO_T, Poly.of(2, -2), 1), gauss):
        for p, q in ((psi1, psi2), (psi2, psi1)):
            decide(p, q, a)
        for Ft in (closed_form(psi1, a), reflected_transform(psi2, a)):
            f, fp = Ft.eval_many(z, with_derivative=True)
            assert np.all(np.isfinite(f)) and np.all(np.isfinite(fp))
    assert decide(TWO_T, Poly.of(2, -2), 1).outcome == OUTCOME_COINCIDE


def _fprime(Ft, z):
    return complex(Ft.eval_many(np.array([z]), with_derivative=True)[1][0])


def _horner_bound(Ft, z):
    """A priori rounding bound of `eval_many` of Ft at z (Higham, *Accuracy
    and Stability*, section 5.1): n eps times the sum of the moduli of the
    n terms of the rule or the Laurent form that z falls in; for the rule,
    N eps sum_k |W_k| e^{-t_k Im z}.  For the transform of i t g, which is
    F', W_k carries the factor t_k."""
    a, osc, plain = Ft._laurent
    t, weights, _ = Ft._rule
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    small = r < _radius(Ft)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / r
        laurent = w * (np.exp(-a * z.imag) * np.polyval(np.abs(osc[::-1]), w)
                       + np.polyval(np.abs(plain[::-1]), w))
    rule = (np.abs(weights) @ np.exp(-np.outer(t, z.imag))).reshape(z.shape)
    terms = np.where(small, rule, laurent)
    n = np.where(small, len(t), len(osc) + 1)
    return n * np.finfo(float).eps * terms


def test_derivative_transform():
    Ft = closed_form(ONE, 1)
    assert abs(_fprime(Ft, 0) - 0.5j) < 1e-14  # i mu_1
    h = 1e-6
    z = 2 * math.pi
    fd = (Ft(z + h) - Ft(z - h)) / (2 * h)
    assert abs(_fprime(Ft, z) - fd) < 1e-8
    assert abs(_fprime(closed_form(TWO_T, 1), 0) - 2j / 3) < 1e-14


def test_derivative_matches_transform_method(rng):
    # F' is the transform of i t g(t); compare with it and with a central difference
    psi = random_admissible_poly(rng, 4, 1)
    Ft = closed_form(psi, 1)
    Fd = transform_of_i_t(Ft)
    h = 1e-5
    for z in (0.1, 2.0 + 1.0j, -7.5 - 0.3j):
        fp = _fprime(Ft, z)
        assert abs(fp - Fd(z)) <= 2 * _horner_bound(Fd, z)
        fd = (Ft(z + h) - Ft(z - h)) / (2 * h)
        assert abs(fp - fd) < 1e-7 * max(1, abs(fp))


def test_eval_many_with_derivative_bit_identical(rng):
    # F bit for bit as evaluated alone; F' the transform of i t g to rounding
    gen = np.random.default_rng(7)
    for k in range(12):
        Ft = ClosedTransform.from_density(random_poly(rng, rng.randint(0, 12)), F(7, 3))
        Fd = transform_of_i_t(Ft)
        # |z| < 0.5 (the rule) and |z| >= 0.5 (Laurent) mixed in one array
        small = gen.uniform(-0.35, 0.35, 9) + 1j * gen.uniform(-0.35, 0.35, 9)
        large = gen.uniform(-20, 20, 40) + 1j * gen.uniform(-4, 4, 40)
        z = gen.permutation(np.concatenate([small, large, [0.5, 0.5j, 0.0]]))
        for pts in (z, z[:1], small[:1], large[:1]):
            f, fp = Ft.eval_many(pts, with_derivative=True)
            assert np.array_equal(f, Ft.eval_many(pts))
            assert np.all(np.abs(fp - Fd.eval_many(pts)) <= 2 * _horner_bound(Fd, pts))


def test_eval_many_shape_and_pointwise_bits(rng):
    # any input shape comes back as it went in, and every value, F and F', has
    # the bits of that point evaluated alone, whether the array holds Laurent
    # points only (no mask), points inside the radius only or both
    gen = np.random.default_rng(3)
    laurent = gen.uniform(-20, 20, 12) + 1j * gen.uniform(-4, 4, 12)
    inside = gen.uniform(-0.35, 0.35, 12) + 1j * gen.uniform(-0.35, 0.35, 12)
    mixed = np.where(np.arange(12) % 3 == 0, inside, laurent)
    for g in (Poly.of(), ONE, random_poly(rng, 7)):
        Ft = ClosedTransform.from_density(g, F(7, 3))
        for pts in (laurent, inside, mixed):
            for z in (pts[0], pts[:0], pts, pts.reshape(3, 4), pts.reshape(4, 3).T):
                z = np.asarray(z)
                alone = [Ft.eval_many(np.array([v]), with_derivative=True) for v in z.ravel()]
                f, fp = Ft.eval_many(z, with_derivative=True)
                f_only = Ft.eval_many(z)
                assert f.shape == fp.shape == f_only.shape == z.shape
                for got, want in ((f, [u for u, _ in alone]), (fp, [d for _, d in alone]),
                                  (f_only, [u for u, _ in alone])):
                    assert got.ravel().tobytes() == np.concatenate(want or [[]]).astype(
                        complex).tobytes()


def _mp_derivative(Ft, nodes):
    """F'(z) = int_0^a i t e^{izt} g(t) dt by Gauss-Legendre on the given
    mpmath nodes; i t g(t) times the weights is tabulated once per Ft."""
    def mpq(x):
        return mpmath.mpf(x.numerator) / x.denominator
    g = [mpmath.mpc(mpq(x), mpq(y)) for x, y in fractions_of(Ft.density.triple)][::-1] or [0]
    h = mpq(Ft.a) / 2
    ts = [h * (x + 1) for x, _ in nodes]
    ws = [1j * h * w * t * mpmath.polyval(g, t) for (_, w), t in zip(nodes, ts)]

    def fp(z):
        iz = 1j * mpmath.mpc(z.real, z.imag)
        return sum(w * mpmath.exp(iz * t) for w, t in zip(ws, ts))
    return fp


def test_eval_many_derivative_vs_mpmath(rng):
    # 48 Gauss-Legendre nodes integrate e^{izt} times a polynomial of degree
    # <= 17 to far below 1e-40 for |z| a <= 14 (the Taylor remainder of the
    # exponential past degree 95), and 192 nodes for |z| a <= 240 (a = 40,
    # where the rule stops at |z| = 10/a); the arithmetic runs at 40 digits
    with mpmath.workdps(40):
        gl = GaussLegendre(mpmath.mp)
        coarse, fine = (gl.calc_nodes(d, mpmath.mp.prec) for d in (5, 7))
        gen = np.random.default_rng(11)
        radii = np.array([0.25, 0.49, 0.51, 2.0, 6.0])
        err, err_ref = [], []
        for degree in range(17):
            for complex_coeffs in (False, True):
                g = random_poly(rng, degree, complex_coeffs)
                for a in (F(1), F(7, 3), F(1, 2), F(40)):
                    Ft = ClosedTransform.from_density(g, a)
                    Fd = transform_of_i_t(Ft)
                    z = radii * np.exp(2j * math.pi * gen.uniform(size=len(radii)))
                    _, fp = Ft.eval_many(z, with_derivative=True)
                    exact = map(_mp_derivative(Ft, fine if a == 40 else coarse), z)
                    e, e_ref = np.array([[float(abs(mpmath.mpc(v) - x)) for v in (u, r)]
                                         for u, r, x in zip(fp, Fd.eval_many(z), exact)]).T
                    # no worse than twice the reference, up to the reference's
                    # own rounding bound
                    assert np.all(e <= 2 * e_ref + _horner_bound(Fd, z) + 1e-300), (degree, a)
                    err.extend(e)
                    err_ref.extend(e_ref)
    assert np.median(err) <= 2 * np.median(err_ref)


def test_real_density_conjugate_symmetry(rng):
    # real psi: F(-conj z) = conj(F(z))
    for psi in (TWO_T, Poly.of(1, 2, 3)):
        Ft = closed_form(psi, 1)
        for _ in range(10):
            z = complex(rng.uniform(-10, 10), rng.uniform(-2, 2))
            assert abs(Ft(-z.conjugate()) - Ft(z).conjugate()) < 1e-12


def test_normalized_density_value_at_zero(rng):
    from bezoutiant.kernel import normalize_pair
    psi = random_admissible_poly(rng, 3, 1)
    pair = normalize_pair(psi, ONE, 1)
    assert closed_form(pair.psi1, 1)(0) == pytest.approx(1.0)


def test_overflow_guard():
    # F(z) = (e^{iz} - 1) / (iz) for psi = 1, a = 1: only a value past float
    # range is refused, however large |a Im z| is
    Ft = closed_form(ONE, 1)
    assert Ft(1j * 1e4) == pytest.approx(1e-4, rel=1e-15)
    assert Ft(-705j) == pytest.approx(math.expm1(705) / 705, rel=1e-14)
    with pytest.raises(EvaluationOverflow, match="float range"):
        Ft(-1j * 1e4)


def test_overflow_of_a_large_coefficient_is_refused():
    # e^{|a Im z|} = e^259 is a float, but p_1 = 1.48e202 i times it is not:
    # a refusal, with no overflow warning (an error here)
    Ft = closed_form(Poly.of(-1, -10 ** 200), 148)
    z = np.array([1.0 - 1.0j, 2.0 - 1.75j])
    assert np.all(np.isfinite(Ft.eval_many(z[:1], with_derivative=True)))
    for with_derivative in (False, True):
        with pytest.raises(EvaluationOverflow, match="float range"):
            Ft.eval_many(z, with_derivative=with_derivative)


def test_call_matches_eval_many():
    Ft = closed_form(ONE, 1)
    assert Ft(0.3) == Ft.eval_many(np.array([0.3]))[0]


def test_nonpositive_endpoint_rejected():
    for a in (0, -1, F(-1, 2)):
        with pytest.raises(ValueError, match="positive"):
            ClosedTransform.from_density(ONE, a)

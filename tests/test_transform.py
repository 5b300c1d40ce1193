import json
import math
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.calculus.quadrature import GaussLegendre

import bezoutiant.transform as transform
from bezoutiant.cli import ProblemSpec
from bezoutiant.exact import GR, Poly, from_numerators
from bezoutiant.symbol import OUTCOME_COINCIDE, decide
from bezoutiant.transform import (
    ClosedTransform,
    EvaluationOverflow,
    _taylor_radius,
    closed_form,
    reflected_transform,
)
from bezoutiant.zeros import SearchRect, locate_zeros
from conftest import (
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
    assert Ft.osc == (GR(0, -1),)       # 1/i
    assert Ft.plain == (GR(0, 1),)      # -1/i
    assert Ft.moments[0] == GR(1)
    assert Ft.moments[1] == GR(F(1, 2))
    assert Ft.moments[2] == GR(F(1, 3))
    # (e^{iaz} - 1)/(iz) near the origin for large a, where the Taylor terms
    # would reach e^{a|z|} if the series were summed out to |z| = 0.49
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
    assert Ft.osc == (GR(0, -1), GR(1))
    assert Ft.plain == (GR(0), GR(-1))
    z = 1.0
    expect = np.exp(1j) / 1j + np.exp(1j) - 1
    assert abs(Ft(z) - expect) < 1e-14


def test_eval_examples():
    Ft = closed_form(ONE, 1)
    assert abs(Ft(2 * math.pi)) < 1e-13
    assert Ft(0) == 1
    G = closed_form(Poly.of(0, 2, -1), 2)  # t(2-t) on [0, 2]
    # Oracle value computed by quadrature ahead of the build: -4/pi^2.
    assert abs(G(math.pi) - (-4 / math.pi ** 2)) < 1e-12


def test_quadrature_oracle_agreement(rng):
    densities = [ONE, T, TWO_T, Poly.of(0, 2, -1), Poly.of(1, GR(0, 1), 3)]
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


def test_switch_circle_consistency():
    for psi, a in ((ONE, 1), (TWO_T, 1), (Poly.of(0, 2, -1), 2)):
        Ft = closed_form(psi, a)
        for theta in np.linspace(0, 2 * math.pi, 17):
            for r in (0.25, 0.4, 0.49, 0.51, 0.7, 1.0):
                z = r * np.exp(1j * theta)
                small = np.polyval(Ft._taylor[::-1], z)
                a_f, osc, plain = Ft._laurent
                w = 1.0 / z
                laurent = np.exp(1j * a_f * z) * np.polyval(
                    np.append(osc[::-1], 0), w
                ) + np.polyval(np.append(plain[::-1], 0), w)
                assert abs(small - laurent) < 1e-12


def _heights(h):
    parts = st.fractions(min_value=-h, max_value=h, max_denominator=h)
    return st.one_of(st.builds(GR, parts), st.builds(GR, parts, parts))


# degrees 0..16 and the zero density, real and Gaussian coefficients of
# height 6 or 1e6
densities = st.sampled_from([6, 10 ** 6]).flatmap(
    lambda h: st.lists(_heights(h), max_size=17)).map(lambda cs: Poly(tuple(cs)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(densities, st.sampled_from([F(1), F(7, 3), F(1, 2)]))
@example(Poly(()), F(1))
@example(Poly.of(*[GR(F(10 ** 6 - k, 999_983), F(-k, 7)) for k in range(17)]), F(7, 3))
def test_floats_are_complex_of_exact_coefficients(g, a):
    # byte for byte, so the sign of a zero counts
    Ft = ClosedTransform.from_density(g, a)
    a_f, osc, plain = Ft._laurent
    assert a_f == float(a)
    assert osc.tobytes() == np.array([complex(c) for c in Ft.osc] or [0j]).tobytes()
    assert plain.tobytes() == np.array([complex(c) for c in Ft.plain] or [0j]).tobytes()
    taylor = [complex(m) * (1j ** n) / math.factorial(n) for n, m in enumerate(Ft.moments)]
    assert Ft._taylor.tobytes() == np.array(taylor).tobytes()


def test_taylor_table_built_on_first_small_point(monkeypatch):
    spec = ProblemSpec.from_json(json.loads((FIXTURES / "cubic_vs_quadratic.json").read_text()))
    Ft = closed_form(spec.psi1, spec.a)
    locate_zeros(Ft, SearchRect(-10, 10, -5, 5))
    assert "_laurent" in vars(Ft) and "_taylor" not in vars(Ft)
    builds, build = [], transform._moments
    monkeypatch.setattr(transform, "_moments", lambda *args: builds.append(args) or build(*args))
    z = 0.3 * np.exp(0.7j)
    value = Ft(z)
    assert Ft(z) == value and len(builds) == 1
    # the Taylor sum over complex() of the exact moments, as eval_many runs it
    acc = np.zeros(1, dtype=complex)
    for n, m in reversed(list(enumerate(Ft.moments))):
        acc = acc * z + complex(m) * (1j ** n) / math.factorial(n)
    assert value == acc[0]


def test_reflection_fixes_constants():
    assert reflected_transform(ONE, 1).osc == closed_form(ONE, 1).osc
    assert reflected_transform(ONE, 1).plain == closed_form(ONE, 1).plain


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
        double = psi.compose_affine(a, -1).compose_affine(a, -1)
        assert double == psi
        t1 = ClosedTransform.from_density(psi, a)
        t2 = ClosedTransform.from_density(double, a)
        assert t1.osc == t2.osc and t1.plain == t2.plain


def _densities_of_kind(h, gaussian):
    parts = st.fractions(min_value=-h, max_value=h, max_denominator=h)
    coeff = st.builds(GR, parts, parts) if gaussian else st.builds(GR, parts)
    return st.lists(coeff, min_size=1, max_size=17).map(lambda cs: Poly(tuple(cs)))


# two densities of degree <= 16, both real or both Gaussian, height 6 or 1e6
density_pairs = st.tuples(st.sampled_from([6, 10 ** 6]), st.booleans()).flatmap(
    lambda kind: st.tuples(_densities_of_kind(*kind), _densities_of_kind(*kind)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(density_pairs, st.sampled_from([F(1), F(7, 3), F(1, 2)]))
def test_reflection_is_the_transform_of_the_reflected_density(psis, a):
    psi1, psi2 = psis
    F1, F21 = closed_form(psi1, a), reflected_transform(psi2, a)
    ref = ClosedTransform.from_density(psi2.compose_affine(a, -1), a)
    twice = F1.reflection().reflection()
    for name in ("osc", "plain", "moments", "density"):
        assert getattr(F21, name) == getattr(ref, name), name
        assert getattr(twice, name) == getattr(F1, name), name
    assert F21._laurent[0] == ref._laurent[0]
    for got, want in zip((*F21._laurent[1:], F21._taylor), (*ref._laurent[1:], ref._taylor)):
        assert got.tobytes() == want.tobytes()
    # the verdict reads (and hands on) exactly these two transforms
    got1, got21 = decide(psi1, psi2, a).transforms
    for triple, exact in zip((got1.p, got1.q, got21.p, got21.q),
                             (F1.osc, F1.plain, F21.osc, F21.plain)):
        assert from_numerators(*triple) == exact


def test_no_reflected_density_on_transform_paths(monkeypatch):
    # the verdict, both transforms and their evaluation (Taylor and Laurent
    # form) read (a, P, Q) only: no density is composed with a - t
    def refuse(*args):
        raise AssertionError("Poly.compose_affine called")
    monkeypatch.setattr(Poly, "compose_affine", refuse)
    z = np.array([0.0, 0.3 - 0.2j, 0.45j, 0.6, 2.0 + 1.0j, -7.5 - 0.3j])
    gauss = (Poly.of(1, GR(0, 2), -3, GR(1, 1)), Poly.of(F(1, 2), GR(1, -1)), F(7, 3))
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
    n terms of the Taylor or Laurent form that z falls in."""
    a, osc, plain = Ft._laurent
    taylor = Ft._taylor
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    small = r < _taylor_radius(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / r
        laurent = w * (np.exp(-a * z.imag) * np.polyval(np.abs(osc[::-1]), w)
                       + np.polyval(np.abs(plain[::-1]), w))
    terms = np.where(small, np.polyval(np.abs(taylor[::-1]), r), laurent)
    n = np.where(small, len(taylor), len(osc) + 1)
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
        # |z| < 0.5 (Taylor) and |z| >= 0.5 (Laurent) mixed in one array
        small = gen.uniform(-0.35, 0.35, 9) + 1j * gen.uniform(-0.35, 0.35, 9)
        large = gen.uniform(-20, 20, 40) + 1j * gen.uniform(-4, 4, 40)
        z = gen.permutation(np.concatenate([small, large, [0.5, 0.5j, 0.0]]))
        for pts in (z, z[:1], small[:1], large[:1]):
            f, fp = Ft.eval_many(pts, with_derivative=True)
            assert np.array_equal(f, Ft.eval_many(pts))
            assert np.all(np.abs(fp - Fd.eval_many(pts)) <= 2 * _horner_bound(Fd, pts))


def _mp_derivative(Ft, nodes):
    """F'(z) = int_0^a i t e^{izt} g(t) dt by Gauss-Legendre on the given
    mpmath nodes; i t g(t) times the weights is tabulated once per Ft."""
    def mpq(x):
        return mpmath.mpf(x.numerator) / x.denominator
    g = [mpmath.mpc(mpq(c.re), mpq(c.im)) for c in Ft.density.coeffs][::-1] or [0]
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
    # where the Taylor series stops at |z| = 10/a); the arithmetic runs at
    # 40 digits
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
    Ft = closed_form(ONE, 1)
    with pytest.raises(EvaluationOverflow):
        Ft(1j * 1e4)


def test_call_matches_eval_many():
    Ft = closed_form(ONE, 1)
    assert Ft(0.3) == Ft.eval_many(np.array([0.3]))[0]


def test_nonpositive_endpoint_rejected():
    for a in (0, -1, F(-1, 2)):
        with pytest.raises(ValueError, match="positive"):
            ClosedTransform.from_density(ONE, a)

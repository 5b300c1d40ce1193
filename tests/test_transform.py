import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from mpmath.calculus.quadrature import GaussLegendre

from bezoutiant.exact import GR, Poly
from bezoutiant.transform import (
    SWITCH_RADIUS,
    ClosedTransform,
    EvaluationOverflow,
    closed_form,
    reflected_transform,
)
from conftest import (
    quadrature_transform,
    random_admissible_poly,
    random_poly,
    transform_of_i_t,
)

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
                small = np.polyval(Ft._float_data[3][::-1], z)
                a_f, osc, plain, _ = Ft._float_data
                w = 1.0 / z
                laurent = np.exp(1j * a_f * z) * np.polyval(
                    np.append(osc[::-1], 0), w
                ) + np.polyval(np.append(plain[::-1], 0), w)
                assert abs(small - laurent) < 1e-12


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
        double = psi.reflect(a, conjugate=False).reflect(a, conjugate=False)
        assert double == psi
        t1 = ClosedTransform.from_density(psi, a)
        t2 = ClosedTransform.from_density(double, a)
        assert t1.osc == t2.osc and t1.plain == t2.plain


def _fprime(Ft, z):
    return complex(Ft.eval_many(np.array([z]), with_derivative=True)[1][0])


def _horner_bound(Ft, z):
    """A priori rounding bound of `eval_many` of Ft at z (Higham, *Accuracy
    and Stability*, section 5.1): n eps times the sum of the moduli of the
    n terms of the Taylor or Laurent form that z falls in."""
    a, osc, plain, taylor = Ft._float_data
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    small = r < SWITCH_RADIUS
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
    # exponential past degree 95); the arithmetic runs at 40 digits
    with mpmath.workdps(40):
        nodes = GaussLegendre(mpmath.mp).calc_nodes(5, mpmath.mp.prec)
        gen = np.random.default_rng(11)
        radii = np.array([0.25, 0.49, 0.51, 2.0, 6.0])
        err, err_ref = [], []
        for degree in range(17):
            for complex_coeffs in (False, True):
                g = random_poly(rng, degree, complex_coeffs)
                for a in (F(1), F(7, 3), F(1, 2)):
                    Ft = ClosedTransform.from_density(g, a)
                    Fd = transform_of_i_t(Ft)
                    z = radii * np.exp(2j * math.pi * gen.uniform(size=len(radii)))
                    _, fp = Ft.eval_many(z, with_derivative=True)
                    exact = map(_mp_derivative(Ft, nodes), z)
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

import random
from fractions import Fraction
from math import lcm, pi

import numpy as np
import pytest

from bezoutiant.exact import Poly
from bezoutiant.transform import ClosedTransform


def random_rational(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_gaussian(rng: random.Random, span: int = 6, complex_coeffs: bool = True) -> tuple:
    """A random Gaussian rational as an (re, im) pair of Fractions."""
    im = random_rational(rng, span) if complex_coeffs else Fraction(0)
    return random_rational(rng, span), im


def triple_of(re, im=0) -> tuple:
    """The exact scalar re + i im (rationals) as its triple (re, im, den) in
    lowest terms: over lcm of the two denominators no common factor is left."""
    re, im = Fraction(re), Fraction(im)
    den = lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


def as_fractions(value: tuple) -> tuple:
    """The exact scalar (re, im, den) as an (re, im) pair of Fractions."""
    re, im, den = value
    return Fraction(re, den), Fraction(im, den)


def complex_of(value: tuple) -> complex:
    """The exact scalar (re, im, den) as a complex float, each part correctly rounded."""
    return complex(*map(float, as_fractions(value)))


def fractions_of(triple: tuple) -> list:
    """The entries (re[k] + i im[k]) / den of an integer triple as (re, im)
    pairs of Fractions."""
    re, im, den = triple
    return [as_fractions((r, m, den)) for r, m in zip(re, im)]


def is_zero(value: tuple) -> bool:
    """Whether the exact scalar (re, im, den) is 0."""
    return not (value[0] or value[1])


def random_poly(rng: random.Random, degree: int, complex_coeffs: bool = True) -> Poly:
    """Random polynomial of exactly the given degree."""
    while True:
        p = Poly.of(*(random_gaussian(rng, complex_coeffs=complex_coeffs)
                      for _ in range(degree + 1)))
        if p.degree == degree:
            return p


def random_admissible_poly(rng: random.Random, degree: int, a, complex_coeffs=True) -> Poly:
    """Random density with nonzero mass on [0, a]."""
    while True:
        p = random_poly(rng, degree, complex_coeffs)
        if not is_zero(p.integral(0, a)):
            return p


def eval_complex(p: Poly, x):
    """p at the floats x by Horner's rule on complex() of its exact
    coefficients: a float evaluation in x that shares no code with the
    package's."""
    re, im, den = p.triple
    return np.polynomial.polynomial.polyval(
        np.asarray(x), [complex(r / den, m / den) for r, m in zip(re, im)] or [0j])


def quadrature_transform(psi: Poly, a, z: complex, tol: float = 1e-12) -> complex:
    """Independent oracle: adaptive Gauss-Legendre of int_0^a e^{izt} conj(Psi(t)) dt.

    Evaluates the integrand directly; shares no code path with the closed
    form beyond float polynomial evaluation.
    """
    a = float(a)
    g = psi.conjugate()
    nodes, weights = np.polynomial.legendre.leggauss(24)
    prev = None
    for panels in (4, 8, 16, 32, 64, 128):
        edges = np.linspace(0.0, a, panels + 1)
        total = 0j
        for lo, hi in zip(edges[:-1], edges[1:]):
            t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            w = 0.5 * (hi - lo) * weights
            total += np.sum(w * np.exp(1j * z * t) * eval_complex(g, t))
        if prev is not None and abs(total - prev) <= tol * (1 + abs(total)):
            return complex(total)
        prev = total
    return complex(prev)


def transform_of_i_t(Ft: ClosedTransform) -> ClosedTransform:
    """F' as the transform of i t g, built from scratch: an exact reference
    for the F' that `eval_many` derives from F."""
    return ClosedTransform.from_density(Ft.density.times_x() * (0, 1, 1), Ft.a)


def t_from_generators(ops) -> np.ndarray:
    """The Nystrom matrix of T that a `Discretization`'s generators imply:
    T[i, j] = a_l[i] . p[j] for j > i and a_u[i] . q[j] for j <= i."""
    (al, p), (au, q) = ops.t_lower, ops.t_upper
    above = np.triu(np.ones((ops.grid.n, ops.grid.n), dtype=bool), 1)
    return np.where(above, al @ p.T, au @ q.T)


def bessel_reference(n: int, x_max: float) -> list:
    """Positive zeros of J_{n+1/2} up to x_max, via the spherical form.

    Spherical j_0 has zeros at k*pi; zeros of successive orders interlace,
    so each level is bracketed between consecutive zeros of the previous
    one and refined with Brent's method.
    """
    from scipy.optimize import brentq
    from scipy.special import spherical_jn

    if not (0 <= n <= 20):
        raise ValueError("order n must be in [0, 20]")
    if not (0 < x_max <= 200):
        raise ValueError("x_max must be in (0, 200]")
    upper = x_max + (n + 2) * pi
    zeros = [k * pi for k in range(1, int(upper / pi) + 2)]
    for order in range(1, n + 1):
        f = lambda x: spherical_jn(order, x)
        zeros = [
            brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
            for lo, hi in zip(zeros[:-1], zeros[1:])
        ]
    return [z for z in zeros if z <= x_max]


@pytest.fixture
def rng():
    return random.Random(20240817)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, capture-proof."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)

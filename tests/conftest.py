import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bezoutiant.exact import GR, Poly
from bezoutiant.transform import ClosedTransform


def random_rational(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_gr(rng: random.Random, span: int = 6, complex_coeffs: bool = True):
    im = random_rational(rng, span) if complex_coeffs else 0
    return GR(random_rational(rng, span), im)


def random_poly(rng: random.Random, degree: int, complex_coeffs: bool = True) -> Poly:
    """Random polynomial of exactly the given degree."""
    while True:
        coeffs = [random_gr(rng, complex_coeffs=complex_coeffs) for _ in range(degree + 1)]
        p = Poly(tuple(coeffs))
        if p.degree == degree:
            return p


def random_admissible_poly(rng: random.Random, degree: int, a, complex_coeffs=True) -> Poly:
    """Random density with nonzero mass on [0, a]."""
    while True:
        p = random_poly(rng, degree, complex_coeffs)
        if p.integral(0, a):
            return p


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
            total += np.sum(w * np.exp(1j * z * t) * g.eval_float(t))
        if prev is not None and abs(total - prev) <= tol * (1 + abs(total)):
            return complex(total)
        prev = total
    return complex(prev)


def transform_of_i_t(Ft: ClosedTransform) -> ClosedTransform:
    """F' as the transform of i t g, built from scratch with as many moments
    as Ft: an exact reference for the F' that `eval_many` derives from F."""
    full = ClosedTransform.from_density(Ft.density.times_x() * GR(0, 1), Ft.a)
    return replace(full, moments=full.moments[:len(Ft.moments)])


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

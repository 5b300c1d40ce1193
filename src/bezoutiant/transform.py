"""Closed forms and numerical evaluation of F(z) = int_0^a e^{izt} conj(Psi(t)) dt.

For a polynomial density the transform has an exact closed form obtained by
repeated integration by parts,

    F(z) = e^{iaz} * sum_j p_j z^{-j}  +  sum_j q_j z^{-j},    j = 1..deg+1,

with Gaussian-rational Laurent coefficients.  Near z = 0 the closed form
cancels catastrophically, so a truncated Taylor series built from the exact
moments mu_n = int_0^a t^n g(t) dt is used instead.

Both sets of exact data come from one pass over the density g:

* Laurent coefficients.  Integrating by parts j times gives
  p_j = -i^j g^(j-1)(a) and q_j = i^j g^(j-1)(0), so `osc` and `plain`
  are the jets of g at a and at 0 (`Poly.jet`, one Taylor shift each)
  multiplied by units.
* Moments.  With g(t) = sum_k g_k t^k,
  mu_n = sum_k g_k a^(n+k+1) / (n+k+1), a sum over one table of the
  powers of a; the sums run on integer numerators over one common
  denominator, and each moment is reduced once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact import GR_I, GaussianRational, Poly, _frac, from_numerators, numerators

#: Crossover radius between the moment Taylor series and the Laurent form.
SWITCH_RADIUS = 0.5

#: Extra moment terms beyond the density degree kept for the z ~ 0 series.
EXTRA_MOMENTS = 32

#: |a * Im z| beyond which exp() would overflow double range.
OVERFLOW_LIMIT = 700.0


class EvaluationOverflow(ValueError):
    """e^{|a Im z|} exceeds double range; evaluation refused, not extended."""


def _times_i_power(v: GaussianRational, j: int) -> GaussianRational:
    """i^j * v, exactly."""
    re, im = v.re, v.im
    for _ in range(j % 4):
        re, im = -im, re
    return GaussianRational(re, im)


def _moments(g: Poly, a: Fraction, count: int) -> tuple:
    """mu_n = int_0^a t^n g(t) dt = sum_k g_k a^(n+k+1) / (n+k+1), n < count."""
    re, im, den = numerators(g.coeffs)
    top = count + len(re) - 1  # largest power n + k + 1
    p, q = a.numerator, a.denominator
    ell = math.lcm(*range(1, top + 1))
    # a^m / m = w[m] / (q^top ell)
    w = [0] + [p ** m * q ** (top - m) * (ell // m) for m in range(1, top + 1)]
    mre, mim = [], []
    for n in range(count):
        mre.append(sum(c * w[n + k + 1] for k, c in enumerate(re)))
        mim.append(sum(c * w[n + k + 1] for k, c in enumerate(im)))
    return from_numerators(mre, mim, den * q ** top * ell)


@dataclass(frozen=True)
class ClosedTransform:
    """Exact closed form of F(z) = int_0^a e^{izt} g(t) dt.

    `density` is the integrand polynomial g (already conjugated/reflected
    by the constructor helpers below).  `osc` and `plain` hold the Laurent
    coefficients p_j, q_j of z^{-j} (index j-1); `moments` holds mu_n.
    """

    a: Fraction
    density: Poly
    osc: tuple
    plain: tuple
    moments: tuple

    @classmethod
    def from_density(cls, g: Poly, a, n_moments: int | None = None) -> "ClosedTransform":
        a = _frac(a)
        if a <= 0:
            raise ValueError("interval endpoint a must be positive")
        if n_moments is None:
            n_moments = g.degree + 1 + EXTRA_MOMENTS
        # p_j = -i^j g^(j-1)(a),  q_j = i^j g^(j-1)(0),  j = 1..deg+1
        osc = tuple(-_times_i_power(v, j) for j, v in enumerate(g.jet(a), 1))
        plain = tuple(_times_i_power(v, j) for j, v in enumerate(g.jet(0), 1))
        return cls(a, g, osc, plain, _moments(g, a, n_moments))

    def derivative(self) -> "ClosedTransform":
        """Closed form of F'(z) = i * int_0^a t e^{izt} g(t) dt."""
        return ClosedTransform.from_density(
            self.density.times_x() * GR_I, self.a, len(self.moments))

    # -- float evaluation --------------------------------------------------

    @cached_property
    def _float_data(self):
        a = float(self.a)
        osc = np.array([complex(c) for c in self.osc] or [0j])
        plain = np.array([complex(c) for c in self.plain] or [0j])
        # Taylor coefficients of F at 0: mu_n i^n / n!
        taylor = np.array(
            [complex(m) * (1j ** n) / math.factorial(n)
             for n, m in enumerate(self.moments)]
        )
        return a, osc, plain, taylor

    def eval_many(self, z) -> np.ndarray:
        """Vectorized evaluation at an array of complex points."""
        z = np.asarray(z, dtype=complex)
        a, osc, plain, taylor = self._float_data
        if np.any(np.abs(z.imag) * a > OVERFLOW_LIMIT):
            raise EvaluationOverflow(
                f"|a Im z| exceeds {OVERFLOW_LIMIT}; result would overflow")
        out = np.empty_like(z)
        small = np.abs(z) < SWITCH_RADIUS
        if np.any(small):
            zs = z[small]
            acc = np.zeros_like(zs)
            for c in taylor[::-1]:
                acc = acc * zs + c
            out[small] = acc
        if np.any(~small):
            zl = z[~small]
            w = 1.0 / zl
            acc_o = np.zeros_like(zl)
            acc_p = np.zeros_like(zl)
            for po, pp in zip(osc[::-1], plain[::-1]):
                acc_o = (acc_o + po) * w
                acc_p = (acc_p + pp) * w
            out[~small] = np.exp(1j * a * zl) * acc_o + acc_p
        return out

    def __call__(self, z: complex) -> complex:
        return complex(self.eval_many(np.array([z]))[0])


def closed_form(psi: Poly, a) -> ClosedTransform:
    """Transform of conj(Psi): F(z) = int_0^a e^{izt} conj(Psi(t)) dt."""
    return ClosedTransform.from_density(psi.conjugate(), a)


def reflected_transform(psi2: Poly, a) -> ClosedTransform:
    """F_{2,1}(z) = int_0^a e^{izt} Psi_2(a-t) dt (no conjugation)."""
    return ClosedTransform.from_density(psi2.reflect(a, conjugate=False), a)


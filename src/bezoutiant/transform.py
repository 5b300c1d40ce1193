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

F' needs no exact data of its own.  `eval_many(z, with_derivative=True)`
returns (F(z), F'(z)) from one pass over F's float coefficients (Horner's
rule with derivative; Higham, *Accuracy and Stability*, section 5.1):

* Taylor form: the update dacc = dacc z + acc before acc = acc z + c;
* Laurent form: with w = 1/z, P(w) = sum_j p_j w^j and Q(w) = sum_j q_j w^j
  each step is t = acc + p, acc = t w, and d = d w + t carries P'(w) and
  Q'(w); then F'(z) = e^{iaz} (i a P(w) - w^2 P'(w)) - w^2 Q'(w).

Both values share the overflow check, the Taylor/Laurent split, 1/z and
e^{iaz}, and F is bit for bit what `eval_many(z)` returns on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact import GaussianRational, Poly, _frac, from_numerators, numerators

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
    def from_density(cls, g: Poly, a) -> "ClosedTransform":
        a = _frac(a)
        if a <= 0:
            raise ValueError("interval endpoint a must be positive")
        # p_j = -i^j g^(j-1)(a),  q_j = i^j g^(j-1)(0),  j = 1..deg+1
        osc = tuple(-_times_i_power(v, j) for j, v in enumerate(g.jet(a), 1))
        plain = tuple(_times_i_power(v, j) for j, v in enumerate(g.jet(0), 1))
        return cls(a, g, osc, plain, _moments(g, a, g.degree + 1 + EXTRA_MOMENTS))

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

    def eval_many(self, z, with_derivative: bool = False):
        """Vectorized evaluation at an array of complex points.

        With `with_derivative` the result is the pair (F(z), F'(z)), F' by
        Horner's rule with derivative in the same pass (see the module doc);
        F-only calls carry no derivative accumulators.
        """
        z = np.asarray(z, dtype=complex)
        a, osc, plain, taylor = self._float_data
        if np.any(np.abs(z.imag) * a > OVERFLOW_LIMIT):
            raise EvaluationOverflow(
                f"|a Im z| exceeds {OVERFLOW_LIMIT}; result would overflow")
        f = np.empty_like(z)
        fp = np.empty_like(z) if with_derivative else None
        small = np.abs(z) < SWITCH_RADIUS
        if np.any(small):
            zs = z[small]
            acc = dacc = np.zeros_like(zs)
            for c in taylor[::-1]:
                if with_derivative:
                    dacc = dacc * zs + acc
                acc = acc * zs + c
            f[small] = acc
            if with_derivative:
                fp[small] = dacc
        large = ~small
        if np.any(large):
            zl = z[large]
            w = 1.0 / zl
            e = np.exp(1j * a * zl)
            acc_o = d_o = np.zeros_like(zl)
            acc_p = d_p = np.zeros_like(zl)
            for po, pp in zip(osc[::-1], plain[::-1]):
                t_o = acc_o + po
                t_p = acc_p + pp
                if with_derivative:
                    d_o = d_o * w + t_o
                    d_p = d_p * w + t_p
                acc_o = t_o * w
                acc_p = t_p * w
            f[large] = e * acc_o + acc_p
            if with_derivative:
                w2 = w * w
                fp[large] = e * (1j * a * acc_o - w2 * d_o) - w2 * d_p
        return (f, fp) if with_derivative else f

    def __call__(self, z: complex) -> complex:
        return complex(self.eval_many(np.array([z]))[0])


def closed_form(psi: Poly, a) -> ClosedTransform:
    """Transform of conj(Psi): F(z) = int_0^a e^{izt} conj(Psi(t)) dt."""
    return ClosedTransform.from_density(psi.conjugate(), a)


def reflected_transform(psi2: Poly, a) -> ClosedTransform:
    """F_{2,1}(z) = int_0^a e^{izt} Psi_2(a-t) dt (no conjugation)."""
    return ClosedTransform.from_density(psi2.reflect(a, conjugate=False), a)


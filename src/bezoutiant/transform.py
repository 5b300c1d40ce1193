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

`derivative()` builds F' from F's own exact data: differentiating the
closed form gives p'_j = i a p_j - (j-1) p_{j-1} and q'_j = -(j-1) q_{j-1}
(the jets of i t g, since (t g)^(k) = t g^(k) + k g^(k-1)), and the
moments are mu'_n = i mu_{n+1}, so only one new moment of g is computed.
`eval_many(z, with_derivative=True)` returns (F(z), F'(z)) from one pass
that shares the Taylor/Laurent split, 1/z and e^{iaz}; each value equals
the separate evaluation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact import GR_I, GR_ZERO, GaussianRational, Poly, _frac, from_numerators, numerators

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


def _moments(g: Poly, a: Fraction, count: int, first: int = 0) -> tuple:
    """mu_n = int_0^a t^n g(t) dt = sum_k g_k a^(n+k+1) / (n+k+1), first <= n < count."""
    re, im, den = numerators(g.coeffs)
    top = count + len(re) - 1  # largest power n + k + 1
    p, q = a.numerator, a.denominator
    ell = math.lcm(*range(1, top + 1))
    # a^m / m = w[m] / (q^top ell)
    w = [0] + [p ** m * q ** (top - m) * (ell // m) for m in range(1, top + 1)]
    mre, mim = [], []
    for n in range(first, count):
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

    def derivative(self) -> "ClosedTransform":
        """Closed form of F'(z) = i * int_0^a t e^{izt} g(t) dt, built once.

        It comes from F's own exact data, with no second Taylor shift or
        moment table.  Differentiating the closed form term by term gives

            p'_j = i a p_j - (j-1) p_{j-1},    q'_j = -(j-1) q_{j-1},

        for j = 1..deg+2; these are the jets of i t g(t), since
        (t g)^(k)(x) = x g^(k)(x) + k g^(k-1)(x).  The moments are
        mu'_n = i mu_{n+1}, so only the last one needs a new moment of g.
        """
        return self._derivative

    @cached_property
    def _derivative(self) -> "ClosedTransform":
        a = self.a
        p = self.osc + (GR_ZERO,)
        q = self.plain + (GR_ZERO,)
        n = len(p) if self.osc else 0
        osc = tuple(_times_i_power(p[m] * a, 1) - p[m - 1] * m for m in range(n))
        plain = tuple(-(q[m - 1] * m) for m in range(n))
        count = len(self.moments)
        mu = self.moments[1:] + _moments(self.density, a, count + 1, first=count)
        return ClosedTransform(a, self.density.times_x() * GR_I, osc, plain,
                               tuple(_times_i_power(m, 1) for m in mu))

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

        With `with_derivative` the result is the pair (F(z), F'(z)).  Both
        share the overflow check, the Taylor/Laurent split, 1/z and
        e^{iaz}, and each equals, bit for bit, what `eval_many` of F and of
        `derivative()` returns on its own.
        """
        z = np.asarray(z, dtype=complex)
        forms = [self._float_data]
        if with_derivative:
            forms.append(self.derivative()._float_data)
        a = forms[0][0]
        if np.any(np.abs(z.imag) * a > OVERFLOW_LIMIT):
            raise EvaluationOverflow(
                f"|a Im z| exceeds {OVERFLOW_LIMIT}; result would overflow")
        outs = [np.empty_like(z) for _ in forms]
        small = np.abs(z) < SWITCH_RADIUS
        if np.any(small):
            zs = z[small]
            for out, (_, _, _, taylor) in zip(outs, forms):
                acc = np.zeros_like(zs)
                for c in taylor[::-1]:
                    acc = acc * zs + c
                out[small] = acc
        large = ~small
        if np.any(large):
            zl = z[large]
            w = 1.0 / zl
            e = np.exp(1j * a * zl)
            for out, (_, osc, plain, _) in zip(outs, forms):
                acc_o = np.zeros_like(zl)
                acc_p = np.zeros_like(zl)
                for po, pp in zip(osc[::-1], plain[::-1]):
                    acc_o = (acc_o + po) * w
                    acc_p = (acc_p + pp) * w
                out[large] = e * acc_o + acc_p
        return tuple(outs) if with_derivative else outs[0]

    def __call__(self, z: complex) -> complex:
        return complex(self.eval_many(np.array([z]))[0])


def closed_form(psi: Poly, a) -> ClosedTransform:
    """Transform of conj(Psi): F(z) = int_0^a e^{izt} conj(Psi(t)) dt."""
    return ClosedTransform.from_density(psi.conjugate(), a)


def reflected_transform(psi2: Poly, a) -> ClosedTransform:
    """F_{2,1}(z) = int_0^a e^{izt} Psi_2(a-t) dt (no conjugation)."""
    return ClosedTransform.from_density(psi2.reflect(a, conjugate=False), a)


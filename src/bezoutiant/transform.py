"""Closed forms and numerical evaluation of F(z) = int_0^a e^{izt} conj(Psi(t)) dt.

For a polynomial density the transform has an exact closed form obtained by
repeated integration by parts,

    F(z) = e^{iaz} * sum_j p_j z^{-j}  +  sum_j q_j z^{-j},    j = 1..deg+1,

with Gaussian-rational Laurent coefficients.  Near z = 0 the closed form
cancels catastrophically, so a truncated Taylor series built from the exact
moments mu_n = int_0^a t^n g(t) dt is used instead.

A transform holds only a and g and derives the rest on first use:

* Laurent coefficients.  Integrating by parts j times gives
  p_j = -i^j g^(j-1)(a) and q_j = i^j g^(j-1)(0): the jets of g at a and
  at 0 (`Poly.jet_numerators`, one Taylor shift each), with the units
  applied to the integer numerators (`_laurent_numerators`, also read by
  `NormalizedPair.laurent`).  `osc` and `plain` reduce each entry once;
  the floats `eval_many` reads divide each part once.
* Moments.  mu_n = sum_k g_k a^(n+k+1) / (n+k+1), summed on integer
  numerators over one table of the powers of a.  This big-integer table
  is built only for `moments` or the first point with |z| < SWITCH_RADIUS.

Python's int/int division and `Fraction.__float__` both round correctly,
so every float is complex() of its exact coefficient, bit for bit.

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

from .exact import Poly, _frac, from_numerators, numerators

#: Crossover radius between the moment Taylor series and the Laurent form.
SWITCH_RADIUS = 0.5

#: Extra moment terms beyond the density degree kept for the z ~ 0 series.
EXTRA_MOMENTS = 32

#: |a * Im z| beyond which exp() would overflow double range.
OVERFLOW_LIMIT = 700.0


class EvaluationOverflow(ValueError):
    """e^{|a Im z|} exceeds double range; evaluation refused, not extended."""


def _times_i_powers(re: list, im: list, den: int, e: int) -> tuple:
    """(re, im, den) with entry k multiplied by i^(e + k)."""
    # Re(i^p (r + i m)) is r, -m, -r, m for p = 0..3 (mod 4); Im(...) = Re(i^(p+3) ...)
    parts, ks = (re, im, [-r for r in re], [-m for m in im]), range(len(re))
    return [parts[(-e - k) % 4][k] for k in ks], [parts[(1 - e - k) % 4][k] for k in ks], den


def _laurent_numerators(at_a: tuple, at_0: tuple) -> tuple:
    """(P, Q), entry k = p_(k+1), q_(k+1), from g's jets at a and at 0 (integer triples)."""
    return _times_i_powers(*at_a, 3), _times_i_powers(*at_0, 1)  # -i^j = i^(j+2)


def _floats(re, im, den) -> list:
    """(re[k] + i im[k]) / den as complex floats, each part divided once."""
    return [complex(r / den, m / den) for r, m in zip(re, im)]


def _moments(g: Poly, a: Fraction) -> tuple:
    """(re, im, den) of mu_n = sum_k g_k a^(n+k+1) / (n+k+1), n <= deg + EXTRA_MOMENTS."""
    re, im, den = numerators(g.coeffs)
    count = g.degree + 1 + EXTRA_MOMENTS
    top = count + len(re) - 1  # largest power n + k + 1
    p, q = a.numerator, a.denominator
    ell = math.lcm(*range(1, top + 1))
    # a^m / m = w[m] / (q^top ell)
    w = [0] + [p ** m * q ** (top - m) * (ell // m) for m in range(1, top + 1)]
    mre, mim = [], []
    for n in range(count):
        mre.append(sum(c * w[n + k + 1] for k, c in enumerate(re)))
        mim.append(sum(c * w[n + k + 1] for k, c in enumerate(im)))
    return mre, mim, den * q ** top * ell


@dataclass(frozen=True)
class ClosedTransform:
    """Exact closed form of F(z) = int_0^a e^{izt} g(t) dt.

    `density` is the integrand polynomial g (already conjugated/reflected
    by the constructor helpers below).  The cached `osc` and `plain` hold
    the Laurent coefficients p_j, q_j of z^{-j} (index j-1) and `moments`
    holds mu_n; the floats `eval_many` reads are built on first use too.
    """

    a: Fraction
    density: Poly

    @classmethod
    def from_density(cls, g: Poly, a) -> "ClosedTransform":
        a = _frac(a)
        if a <= 0:
            raise ValueError("interval endpoint a must be positive")
        return cls(a, g)

    def _pq(self) -> tuple:
        return _laurent_numerators(*(self.density.jet_numerators(x) for x in (self.a, 0)))

    @cached_property
    def osc(self) -> tuple:
        return from_numerators(*self._pq()[0])

    @cached_property
    def plain(self) -> tuple:
        return from_numerators(*self._pq()[1])

    @cached_property
    def moments(self) -> tuple:
        return from_numerators(*_moments(self.density, self.a))

    # -- float evaluation --------------------------------------------------

    @cached_property
    def _laurent(self):
        """(a, p, q) as floats; p and q hold one 0 for the zero density."""
        osc, plain = (_floats(*pq) for pq in self._pq())
        return float(self.a), np.array(osc or [0j]), np.array(plain or [0j])

    @cached_property
    def _taylor(self) -> np.ndarray:
        """Taylor coefficients of F at 0: mu_n i^n / n!."""
        return np.array([m * (1j ** n) / math.factorial(n)
                         for n, m in enumerate(_floats(*_moments(self.density, self.a)))])

    def eval_many(self, z, with_derivative: bool = False):
        """Vectorized evaluation at an array of complex points.

        With `with_derivative` the result is the pair (F(z), F'(z)), F' by
        Horner's rule with derivative in the same pass (see the module doc);
        F-only calls carry no derivative accumulators.
        """
        z = np.asarray(z, dtype=complex)
        a, osc, plain = self._laurent
        if np.any(np.abs(z.imag) * a > OVERFLOW_LIMIT):
            raise EvaluationOverflow(
                f"|a Im z| exceeds {OVERFLOW_LIMIT}; result would overflow")
        f = np.empty_like(z)
        fp = np.empty_like(z) if with_derivative else None
        small = np.abs(z) < SWITCH_RADIUS
        if np.any(small):
            zs = z[small]
            acc = dacc = np.zeros_like(zs)
            for c in self._taylor[::-1]:
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


"""Closed forms and numerical evaluation of F(z) = int_0^a e^{izt} g(t) dt.

A transform is the exponential polynomial F = (a, P, Q) in w = 1/z,

    F(z) = e^{iaz} P(w) + Q(w),   p_j = -i^j g^(j-1)(a),  q_j = i^j g^(j-1)(0),

j = 1..deg+1, by repeated integration by parts.  `ClosedTransform` holds a
and P, Q as integer triples (re, im, den), entry j-1 = (re + i im) / den.
`from_density` takes g's jets at a and at 0 (`Poly.jet_numerators`) and
applies the units to the integers; `symbol.decide` reads these triples as
they are.  All else is derived on first use: `osc` and `plain` reduce each
entry once, and g comes from Q, as g_k = g^(k)(0)/k! = q_(k+1)/(i^(k+1) k!).

Every float `eval_many` reads leaves the exact data through
`exact.to_floats` (a through `float_endpoint`): a Laurent coefficient or
moment past float range, or an a that rounds to 0.0, raises
`FloatRangeError` on the first evaluation, a numeric refusal (exit 4).

Near z = 0 the Laurent form cancels catastrophically; a truncated Taylor
series of the moments mu_n = int_0^a t^n g(t) dt = sum_k g_k a^(n+k+1) /
(n+k+1) is used there, summed on integer numerators over one table of the
powers of a, built only for `moments` or the first point with |z| < r.
Both r and the moment count come from a.  |mu_n| <= a^n int|g|, so the
terms are bounded by (a|z|)^n / n! and peak near e^(a|z|): r = min(
SWITCH_RADIUS, 10/a) keeps that peak below e^10, and the series keeps
every n with (a r)^n / n! > 2^-64, and never fewer than deg + 1 +
EXTRA_MOMENTS terms.  For a <= 6 that is r = SWITCH_RADIUS and deg + 1 +
EXTRA_MOMENTS.  Python's int/int division and `Fraction.__float__`
both round correctly, so every float is complex() of its exact
coefficient, bit for bit, whichever route built the triple.

Reflection.  R(F)(z) = e^{iaz} conj F(conj z) is (a, conj Q, conj P) and
the transform of conj g(a-t): with the bar on the coefficients,
conj F(conj z) = e^{-iaz} conj P(w) + conj Q(w) = int_0^a e^{-izt} conj g(t) dt,
and the factor e^{iaz} swaps the parts or, with s = a - t, gives
int_0^a e^{izs} conj g(a-s) ds.  So F_{2,1}, the transform of Psi_2(a-t),
is the reflection of F_2 = `closed_form(Psi_2)`, with no density built.
As e^{iaz} != 0, R(F)(z) = 0 iff F(conj z) = 0: the zeros of F_{2,1} are
the conjugates of F_2's (acceptance criterion 8).

F' needs no exact data of its own: `eval_many(z, with_derivative=True)`
returns (F(z), F'(z)) from one pass over F's float coefficients (Horner's
rule with derivative; Higham, *Accuracy and Stability*, section 5.1).  The
Taylor form updates dacc = dacc z + acc before acc = acc z + c; in the
Laurent form each step is t = acc + p, acc = t w, and d = d w + t carries
P'(w) and Q'(w), so F'(z) = e^{iaz} (i a P(w) - w^2 P'(w)) - w^2 Q'(w).
Both values share the overflow check, the Taylor/Laurent split, 1/z and
e^{iaz}, and F is bit for bit what `eval_many(z)` returns on its own.
P and Q go through one Horner pass: the accumulators are one (2, N)
array, stepped in place with the rows (p_j, q_j) of one cached table, so
each add or multiply of a step is one numpy call for both; the arithmetic
per point is unchanged.  A call with no point inside the Taylor radius
evaluates its array as it is, with no mask copy or scatter; every value
has the bits of that point evaluated alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact import Poly, _frac, float_endpoint, from_numerators, to_floats

#: Largest crossover radius between the moment Taylor series and the Laurent form.
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


def _conjugate(numers: tuple) -> tuple:
    """The conjugate of an integer triple (re, im, den)."""
    return numers[0], [-v for v in numers[1]], numers[2]


def _to_complex(numers: tuple, what: str) -> list:
    """(re[k] + i im[k]) / den as complex floats, each part through `to_floats`."""
    re, im, den = numers
    return [complex(r, m) for r, m in zip(to_floats(re, den, what), to_floats(im, den, what))]


def _taylor_radius(a: float) -> float:
    """The radius r below which `eval_many` sums the Taylor series (module doc)."""
    return min(SWITCH_RADIUS, 10 / a)


def _moments(g: Poly, a: Fraction) -> tuple:
    """(re, im, den) of mu_n = sum_k g_k a^(n+k+1) / (n+k+1), for every n
    with (a r)^n / n! > 2^-64 and at least n <= deg + EXTRA_MOMENTS."""
    re, im, den = g.triple
    a_f = float_endpoint(a)
    x, count, term = a_f * _taylor_radius(a_f), 0, 1.0
    while term > 2.0 ** -64:  # term = x^count / count!
        count += 1
        term *= x / count
    count = max(count, g.degree + 1 + EXTRA_MOMENTS)
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


@dataclass(frozen=True, eq=False)
class ClosedTransform:
    """F = (a, P, Q) of int_0^a e^{izt} g(t) dt; `p`, `q` hold p_j, q_j at index j-1."""

    a: Fraction
    p: tuple
    q: tuple

    @classmethod
    def from_density(cls, g: Poly, a) -> "ClosedTransform":
        """The transform of g, from g's jets at a and at 0."""
        a = _frac(a)
        if a <= 0:
            raise ValueError("interval endpoint a must be positive")
        at_a, at_0 = (g.jet_numerators(x) for x in (a, 0))
        return cls(a, _times_i_powers(*at_a, 3), _times_i_powers(*at_0, 1))  # -i^j = i^(j+2)

    def reflection(self) -> "ClosedTransform":
        """R(F)(z) = e^{iaz} conj F(conj z), the transform of conj g(a-t) (module doc)."""
        return ClosedTransform(self.a, _conjugate(self.q), _conjugate(self.p))

    @cached_property
    def osc(self) -> tuple:
        return from_numerators(*self.p)

    @cached_property
    def plain(self) -> tuple:
        return from_numerators(*self.q)

    @cached_property
    def density(self) -> Poly:
        """g from Q: g_k = q_(k+1) / (i^(k+1) k!), as 1 / i^j = conj i^j."""
        re, im, den = _conjugate(_times_i_powers(*_conjugate(self.q), 1))
        f = math.factorial(max(len(re) - 1, 0))  # entry k times f / k! over den f
        return Poly._of([r * (f // math.factorial(k)) for k, r in enumerate(re)],
                        [m * (f // math.factorial(k)) for k, m in enumerate(im)], den * f)

    @cached_property
    def moments(self) -> tuple:
        return from_numerators(*_moments(self.density, self.a))

    # -- float evaluation --------------------------------------------------

    @cached_property
    def _laurent(self):
        """(a, p, q) as floats; p and q hold one 0 for the zero density."""
        a = float_endpoint(self.a)
        osc, plain = (_to_complex(numers, "a Laurent coefficient") for numers in (self.p, self.q))
        return a, np.array(osc or [0j]), np.array(plain or [0j])

    @cached_property
    def _taylor(self) -> np.ndarray:
        """Taylor coefficients of F at 0: mu_n i^n / n!."""
        moments = _to_complex(_moments(self.density, self.a), "a moment")
        return np.array([m * (1j ** n) / math.factorial(n) for n, m in enumerate(moments)])

    @cached_property
    def _horner(self) -> np.ndarray:
        """Rows (p_j, q_j) for j = deg+1 down to 1, shaped (deg+1, 2, 1) so
        each row broadcasts against the (2, N) accumulator of `_laurent_sum`."""
        _, osc, plain = self._laurent
        return np.stack([osc, plain], axis=1)[::-1, :, None]

    def _laurent_sum(self, z, a, with_derivative):
        """F (and F', else None) at 1-D z by the Laurent form, P and Q in one Horner pass."""
        w = 1.0 / z
        # w in both rows: numpy's contiguous loops run about twice as fast as broadcast ones
        ww = np.stack((w, w))
        acc, d, t = np.zeros((3, 2, z.size), dtype=complex)
        for c in self._horner:
            np.add(acc, c, out=t)
            if with_derivative:
                d *= ww
                d += t
            np.multiply(t, ww, out=acc)
        e = np.exp(1j * a * z)
        f = e * acc[0] + acc[1]
        if not with_derivative:
            return f, None
        w2 = w * w
        return f, e * (1j * a * acc[0] - w2 * d[0]) - w2 * d[1]

    def eval_many(self, z, with_derivative: bool = False):
        """Vectorized evaluation at an array of complex points.

        With `with_derivative` the result is the pair (F(z), F'(z)), F' by
        Horner's rule with derivative in the same pass (see the module doc);
        F-only calls skip the derivative steps.
        """
        z = np.asarray(z, dtype=complex)
        a = self._laurent[0]
        if np.any(np.abs(z.imag) * a > OVERFLOW_LIMIT):
            raise EvaluationOverflow(
                f"|a Im z| exceeds {OVERFLOW_LIMIT}; result would overflow")
        small = np.abs(z) < _taylor_radius(a)
        if not np.any(small):
            f, fp = self._laurent_sum(z.ravel(), a, with_derivative)
            f = f.reshape(z.shape)
            return (f, fp.reshape(z.shape)) if with_derivative else f
        f = np.empty_like(z)
        fp = np.empty_like(z) if with_derivative else None
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
            f[large], fl = self._laurent_sum(z[large], a, with_derivative)
            if with_derivative:
                fp[large] = fl
        return (f, fp) if with_derivative else f

    def __call__(self, z: complex) -> complex:
        return complex(self.eval_many(np.array([z]))[0])


def closed_form(psi: Poly, a) -> ClosedTransform:
    """Transform of conj(Psi): F(z) = int_0^a e^{izt} conj(Psi(t)) dt."""
    return ClosedTransform.from_density(psi.conjugate(), a)


def reflected_transform(psi2: Poly, a) -> ClosedTransform:
    """F_{2,1}(z) = int_0^a e^{izt} Psi_2(a-t) dt, the reflection of `closed_form(psi2, a)`."""
    return closed_form(psi2, a).reflection()

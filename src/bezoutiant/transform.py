"""Closed forms and numerical evaluation of F(z) = int_0^a e^{izt} g(t) dt.

A transform is the exponential polynomial F = (a, P, Q) in w = 1/z,

    F(z) = e^{iaz} P(w) + Q(w),   p_j = -i^j g^(j-1)(a),  q_j = i^j g^(j-1)(0),

j = 1..deg+1, by repeated integration by parts.  `ClosedTransform` holds a
and P, Q as integer triples (re, im, den), entry j-1 = (re + i im) / den.
`from_density` takes g's jets at a and at 0 (`Poly.jet_numerators`) and
applies the units to the integers; `symbol.decide` reads these triples as
they are.  g is derived on first use, from Q, as g_k = g^(k)(0)/k! =
q_(k+1)/(i^(k+1) k!).

Every float `eval_many` reads leaves the exact data through
`exact.to_floats` (a through `float_endpoint`): a Laurent coefficient or a
density sample past float range, or an a that rounds to 0.0, raises
`FloatRangeError` on the first evaluation, a numeric refusal (exit 4).
A value of F or F' past float range raises `EvaluationOverflow`, also
exit 4, read from numpy's flags of the same call (`eval_many`).

Near z = 0 the Laurent form cancels catastrophically; for |z| < r =
min(SWITCH_RADIUS, 10/a) an N-node Gauss-Legendre rule on [0, a] sums
F(z) = sum_k W_k e^{izt_k}, W_k = w_k g(t_k) (Trefethen, *SIAM Rev.* 50,
2008), built only for the first point inside r.  F(z) = sum_n (iz)^n / n!
int_0^a t^n g(t) dt has terms below (a|z|)^n / n! int|g|; with M the first
n where (a r)^n / n! <= 2^-64, N = ceil((deg g + M) / 2) nodes integrate
every earlier term exactly.  Each g(t_k) is the exact value at the float
node t_k, found on the integers and correctly rounded; w_k is taken from
P_N' at numpy's refined node s_k, as w_k = a / ((1 - s_k^2) P_N'(s_k)^2).

Reflection.  R(F)(z) = e^{iaz} conj F(conj z) is (a, conj Q, conj P) and
the transform of conj g(a-t): with the bar on the coefficients,
conj F(conj z) = e^{-iaz} conj P(w) + conj Q(w) = int_0^a e^{-izt} conj g(t) dt,
and the factor e^{iaz} swaps the parts or, with s = a - t, gives
int_0^a e^{izs} conj g(a-s) ds.  So F_{2,1}, the transform of Psi_2(a-t),
is the reflection of F_2 = `closed_form(Psi_2)`, with no density built.
As e^{iaz} != 0, R(F)(z) = 0 iff F(conj z) = 0: the zeros of F_{2,1} are
the conjugates of F_2's (acceptance criterion 8).

F' needs no exact data of its own: `eval_many(z, with_derivative=True)`
returns (F(z), F'(z)) from one pass over F's float data (Horner's
rule with derivative; Higham, *Accuracy and Stability*, section 5.1).  In
the Laurent form each step is t = acc + p, acc = t w, and d = d w + t
carries P'(w) and Q'(w), so F'(z) = e^{iaz} (i a P(w) - w^2 P'(w)) -
w^2 Q'(w); the rule adds i t_k W_k e^{izt_k}.  Both values share the
refusal of a value past float range, the split at r, 1/z, e^{iaz} and
e^{izt_k}, and F is bit for bit what `eval_many(z)` returns on its own.
P and Q go through one Horner pass: the accumulators are one two-row
array, stepped in place with the rows (p_j, q_j) of one cached table, so
each add or multiply of a step is one numpy call for both; the arithmetic
per point is unchanged.  A call with no point inside r evaluates its
array as it is, with no mask copy or scatter; every value has the bits of
that point evaluated alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact import Poly, _frac, float_endpoint, to_floats

#: Largest crossover radius between the Gauss-Legendre rule and the Laurent form.
SWITCH_RADIUS = 0.5


class EvaluationOverflow(ValueError):
    """F or F' exceeds double range; evaluation refused, not extended."""


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
    def density(self) -> Poly:
        """g from Q: g_k = q_(k+1) / (i^(k+1) k!), as 1 / i^j = conj i^j."""
        re, im, den = _conjugate(_times_i_powers(*_conjugate(self.q), 1))
        f = math.factorial(max(len(re) - 1, 0))  # entry k times f / k! over den f
        return Poly._of([r * (f // math.factorial(k)) for k, r in enumerate(re)],
                        [m * (f // math.factorial(k)) for k, m in enumerate(im)], den * f)

    # -- float evaluation --------------------------------------------------

    @cached_property
    def _laurent(self):
        """(a, p, q) as floats; p and q hold one 0 for the zero density."""
        a = float_endpoint(self.a)
        osc, plain = (_to_complex(numers, "a Laurent coefficient") for numers in (self.p, self.q))
        return a, np.array(osc or [0j]), np.array(plain or [0j])

    @cached_property
    def _rule(self) -> tuple:
        """Nodes t_k, weights W_k = w_k g(t_k) and i t_k W_k of the rule
        inside the radius (module doc).  The nodes are integers n_k over d,
        the largest of their power-of-two denominators, and d^deg g(t_k) =
        sum_j g_j n_k^j d^(deg-j) is one integer per part."""
        a = self._laurent[0]
        x, m, term = min(a * SWITCH_RADIUS, 10.0), 0, 1.0  # x = a r
        while term > 2.0 ** -64:  # term = x^m / m!
            m += 1
            term *= x / m
        re, im, den = self.density.triple
        deg = max(len(re) - 1, 0)
        legendre, n = np.polynomial.legendre, (deg + m + 1) // 2
        s = legendre.leggauss(n)[0]  # its weights read P_n' at the nodes before their Newton step
        w = a / ((1 - s) * (1 + s) * legendre.legval(s, legendre.legder([0] * n + [1])) ** 2)
        t = a / 2 * (s + 1)
        ratios = [v.as_integer_ratio() for v in t.tolist()]
        d = max(q for _, q in ratios)
        nodes = np.array([p * (d // q) for p, q in ratios], dtype=object)
        sr = si = np.zeros(len(t), dtype=object)
        for k, (r, i) in enumerate(zip(re[::-1], im[::-1])):  # k = deg - j
            sr, si = sr * nodes + r * d ** k, si * nodes + i * d ** k
        weights = w * np.array(_to_complex((sr, si, den * d ** deg), "a density sample"))
        return t, weights, 1j * t * weights

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

    def _rule_sum(self, z, with_derivative):
        """F (and F', else None) at 1-D z by the Gauss-Legendre rule, one node at a time."""
        f = np.zeros_like(z)
        fp = np.zeros_like(z) if with_derivative else None
        for t, w, dw in zip(*self._rule):
            e = np.exp(1j * t * z)
            f += w * e
            if with_derivative:
                fp += dw * e
        return f, fp

    def eval_many(self, z, with_derivative: bool = False):
        """Vectorized evaluation at an array of complex points.

        With `with_derivative` the result is the pair (F(z), F'(z)), F' by
        Horner's rule with derivative in the same pass (see the module doc);
        F-only calls skip the derivative steps.  Every value returned is
        finite: one that leaves float range (e^{|a Im z|} past it, or a
        large coefficient times it) is refused after the evaluation, with
        no overflow warning; numpy's floating-point error flags, not a pass
        over the values, tell.
        """
        z = np.asarray(z, dtype=complex)
        flags = []  # numpy reports each overflow or invalid operation here, not as a warning
        with np.errstate(over="call", invalid="call", call=lambda kind, _: flags.append(kind)):
            f, fp = self._eval(z, with_derivative)
        if flags:
            raise EvaluationOverflow(f"F or F' leaves float range ({flags[0]} in the evaluation)")
        return (f, fp) if with_derivative else f

    def _eval(self, z, with_derivative):
        """(F, F' or None) at z: the rule inside the radius, the Laurent form outside."""
        a = self._laurent[0]
        small = np.abs(z) < min(SWITCH_RADIUS, 10 / a)
        if not np.any(small):
            f, fp = self._laurent_sum(z.ravel(), a, with_derivative)
            return f.reshape(z.shape), (fp.reshape(z.shape) if with_derivative else None)
        f = np.empty_like(z)
        fp = np.empty_like(z) if with_derivative else None
        f[small], fs = self._rule_sum(z[small], with_derivative)
        if with_derivative:
            fp[small] = fs
        f[~small], fl = self._laurent_sum(z[~small], a, with_derivative)
        if with_derivative:
            fp[~small] = fl
        return f, fp

    def __call__(self, z: complex) -> complex:
        return complex(self.eval_many(np.array([z]))[0])


def closed_form(psi: Poly, a) -> ClosedTransform:
    """Transform of conj(Psi): F(z) = int_0^a e^{izt} conj(Psi(t)) dt."""
    return ClosedTransform.from_density(psi.conjugate(), a)


def reflected_transform(psi2: Poly, a) -> ClosedTransform:
    """F_{2,1}(z) = int_0^a e^{izt} Psi_2(a-t) dt, the reflection of `closed_form(psi2, a)`."""
    return closed_form(psi2, a).reflection()

"""Exact arithmetic core: Gaussian rationals and polynomials over them.

Everything in this module is exact.  Coefficients are `fractions.Fraction`
(arbitrary precision), and no operation here ever touches a float except
the explicit `*_float` evaluation helpers, which form the boundary to the
numerical layers.

Loops that would otherwise reduce a `Fraction` after every operation run on
integer numerators over one common denominator instead (`numerators`,
`from_numerators`, `taylor_shift`); each result entry is reduced once at
the end, which yields the same canonical `Fraction`s.  This covers

* definite integrals (`Poly.integral`): int_lo^hi p = sum_k c_k
  (hi^(k+1) - lo^(k+1)) / (k+1) is one sum of Gaussian-integer products
  over den q^(n+1) lcm(1..n+1), with q the bounds' common denominator;
* division by a scalar (`Poly.__truediv__`): each coefficient of p / r is
  one Gaussian-integer product (p_r + i p_i)(r_r - i r_i) r_d over
  den |r|^2, for r = (r_r + i r_i) / r_d;
* derivative jets (`Poly.jet_numerators`): p^(k)(x) = k! [s^k] p(x + s)
  from one Taylor shift, with k! and the powers of x's denominator folded
  into the integers, so the transforms' Laurent numerators (which `symbol`
  sums over) are integer lists, each entry reduced once when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Union

import numpy as np

RationalLike = Union[int, Fraction, str]


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal of the form "p/q" or "p".

    Raises ValueError on malformed input or zero denominator.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, re: RationalLike, im: RationalLike = 0) -> "GaussianRational":
        return cls(re, im)

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        """Accepts "p/q" or an integer (real) or {"re": "p/q", "im": "r/s"}.

        Any other part (a float, null, a boolean, a list) raises ValueError.
        """
        parts = (obj.get("re", 0), obj.get("im", 0)) if isinstance(obj, dict) else (obj, 0)
        for part in parts:
            if not isinstance(part, (str, int)) or isinstance(part, bool):
                raise ValueError(f"bad Gaussian rational literal {obj!r}")
        return cls(*parts)

    def to_json(self):
        if self.im == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational.of(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"


GR = GaussianRational.of
GR_ZERO = GR(0)
GR_ONE = GR(1)


def _as_gr(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GR(x)
    raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")


def numerators(values) -> tuple:
    """Integer numerators (re, im) of Gaussian rationals over their least common denominator."""
    den = 1
    for v in values:
        den = lcm(den, v.re.denominator, v.im.denominator)
    re = [v.re.numerator * (den // v.re.denominator) for v in values]
    im = [v.im.numerator * (den // v.im.denominator) for v in values]
    return re, im, den


def from_numerators(re, im, den) -> tuple:
    """Gaussian rationals (re[k] + i im[k]) / den, each reduced once."""
    return tuple(GaussianRational(Fraction(r, den), Fraction(i, den))
                 for r, i in zip(re, im))


def taylor_shift(re: list, im: list, xr: int, xi: int = 0) -> None:
    """In place: coefficients of p(x + s) from those of p(s), x = xr + i xi.

    Integer (re, im) lists in ascending powers; Horner's rule run once per
    degree, O(n^2) Gaussian-integer multiply-adds (von zur Gathen and
    Gerhard 1997, method B).
    """
    n = len(re) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            r, m = re[j + 1], im[j + 1]
            re[j] += xr * r - xi * m
            im[j] += xr * m + xi * r


def _shifted_numerators(numers: tuple, x: GaussianRational) -> tuple:
    """(re, im, den, xd) with [s^k] p(x + s) = (re[k] + i im[k]) xd^k / den.

    With x = (xr + i xi)/xd, xd^n p(x + w/xd) has Gaussian-integer
    coefficients over p's common denominator (`numers` = p's `numerators`, left
    unchanged); its w^k coefficient comes from one Taylor shift by xr + i xi.
    """
    (re, im), den = map(list, numers[:2]), numers[2]
    (xr,), (xi,), xd = numerators((x,))
    n = len(re) - 1
    if xd != 1:
        for j in range(n + 1):
            re[j] *= xd ** (n - j)
            im[j] *= xd ** (n - j)
    if xr or xi:
        taylor_shift(re, im, xr, xi)
    return re, im, den * xd ** max(n, 0), xd


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial with Gaussian-rational coefficients.

    Coefficients are stored in ascending powers with trailing zeros
    trimmed; the zero polynomial is the empty tuple (degree -1).
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(_as_gr(c) for c in self.coeffs)
        while cs and not cs[-1]:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def of(cls, *coeffs) -> "Poly":
        return cls(tuple(coeffs))

    @classmethod
    def from_json(cls, items: Iterable) -> "Poly":
        return cls(tuple(GaussianRational.from_json(c) for c in items))

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else GR_ZERO

    @cached_property
    def _numerators(self) -> tuple:
        """`numerators(self.coeffs)`, computed once per polynomial; read-only."""
        return numerators(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(k) - other.coeff(k) for k in range(n)))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (GaussianRational, int, Fraction)):
            g = _as_gr(other)
            return Poly(tuple(c * g for c in self.coeffs))
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, r) -> "Poly":
        """p / r for a nonzero scalar r, each coefficient reduced once."""
        pr, pi, den = self._numerators
        (rr,), (ri,), rd = numerators((_as_gr(r),))
        d = den * (rr * rr + ri * ri)
        if not d:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly(tuple(GaussianRational(Fraction((x * rr + y * ri) * rd, d),
                                           Fraction((y * rr - x * ri) * rd, d))
                          for x, y in zip(pr, pi)))

    # -- calculus ----------------------------------------------------------

    def __call__(self, x) -> GaussianRational:
        x = _as_gr(x)
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        cs = self.coeffs
        return Poly(tuple(cs[k] * k for k in range(1, len(cs))))

    def antiderivative(self) -> "Poly":
        return Poly((GR_ZERO,) + tuple(
            c * Fraction(1, k + 1) for k, c in enumerate(self.coeffs)))

    def integral(self, lo, hi) -> GaussianRational:
        """int_lo^hi p = sum_k c_k (hi^(k+1) - lo^(k+1)) / (k+1), reduced once."""
        re, im, den = self._numerators
        (l_re, h_re), (l_im, h_im), q = numerators((_as_gr(lo), _as_gr(hi)))
        top = len(re)
        ell = lcm(*range(1, top + 1))
        # with bounds L/q and H/q, term k is c_k (H^m - L^m) q^(top-m) (ell/m)
        # over q^top ell, m = k + 1
        sr = si = 0
        hm_re, hm_im, lm_re, lm_im = 1, 0, 1, 0  # H^m, L^m
        for k in range(top):
            m = k + 1
            hm_re, hm_im = hm_re * h_re - hm_im * h_im, hm_re * h_im + hm_im * h_re
            lm_re, lm_im = lm_re * l_re - lm_im * l_im, lm_re * l_im + lm_im * l_re
            w = q ** (top - m) * (ell // m)
            dr, di = (hm_re - lm_re) * w, (hm_im - lm_im) * w
            sr += re[k] * dr - im[k] * di
            si += re[k] * di + im[k] * dr
        d = den * q ** top * ell
        return GaussianRational(Fraction(sr, d), Fraction(si, d))

    # -- transforms of the argument ---------------------------------------

    def compose_affine(self, c0, c1) -> "Poly":
        """Exact composition p(c0 + c1*t): a Taylor shift by c0, then t -> c1*t."""
        # the t^k coefficient of p(c0 + c1 t) is [s^k] p(c0 + s) c1^k
        re, im, den, xd = _shifted_numerators(self._numerators, _as_gr(c0))
        (yr,), (yi,), yd = numerators((_as_gr(c1),))
        yr, yi = yr * xd, yi * xd
        pr, pi = 1, 0  # (yr + i yi)^k
        for k in range(len(re)):
            re[k], im[k] = re[k] * pr - im[k] * pi, re[k] * pi + im[k] * pr
            pr, pi = pr * yr - pi * yi, pr * yi + pi * yr
        dens = [den * yd ** k for k in range(len(re))]
        return Poly(tuple(GaussianRational(Fraction(r, d), Fraction(i, d))
                          for r, i, d in zip(re, im, dens)))

    def jet_numerators(self, x) -> tuple:
        """(re, im, den) with p^(k)(x) = (re[k] + i im[k]) / den, k = 0..degree.

        p^(k)(x) = k! [s^k] p(x + s), read off one Taylor shift; k! and
        xd^k are folded into the integers.
        """
        re, im, den, xd = _shifted_numerators(self._numerators, _as_gr(x))
        f = 1  # k! xd^k
        for k in range(1, len(re)):
            f *= k * xd
            re[k] *= f
            im[k] *= f
        return re, im, den

    def conjugate(self) -> "Poly":
        """Coefficient-wise conjugate; equals conj(p(t)) for real t."""
        return Poly(tuple(c.conjugate() for c in self.coeffs))

    def reflect(self, a) -> "Poly":
        """t -> conj(p(a-t))."""
        return self.compose_affine(a, -1).conjugate()

    def times_x(self, k: int = 1) -> "Poly":
        if self.is_zero:
            return self
        return Poly((GR_ZERO,) * k + self.coeffs)

    # -- float boundary ----------------------------------------------------

    @cached_property
    def _complex_coeffs(self) -> np.ndarray:
        return np.array([complex(c) for c in self.coeffs] or [0j])

    def eval_float(self, z):
        """Horner evaluation at a complex float or numpy array."""
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in self._complex_coeffs[::-1]:
            acc = acc * z + c
        return acc

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


@dataclass(frozen=True)
class MPoly:
    """Polynomial in (x, t) over Gaussian rationals: a kernel piece of U.

    `terms` maps exponent pairs (i, j) of x^i t^j to nonzero coefficients;
    two pieces are equal when their term dicts are.
    """

    terms: dict

    def __post_init__(self):
        clean = {}
        for exp, c in self.terms.items():
            c = _as_gr(c)
            if c:
                clean[tuple(exp)] = c
        object.__setattr__(self, "terms", clean)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other) -> "MPoly":
        """Product with a scalar."""
        g = _as_gr(other)
        return MPoly({e: c * g for e, c in self.terms.items()})

    def definite_integral(self, lo, hi) -> Poly:
        """int_lo^hi p(s, t) ds as a polynomial in t; each bound is a rational or "t"."""
        out = [GR_ZERO] * (1 + max((i + 1 + j for i, j in self.terms), default=-1))
        for (i, j), c in self.terms.items():
            c = c * Fraction(1, i + 1)  # s^i -> (hi^(i+1) - lo^(i+1)) / (i+1)
            for bound, sign in ((hi, 1), (lo, -1)):
                if bound == "t":
                    out[i + 1 + j] += c * sign
                else:
                    out[j] += c * (sign * _frac(bound) ** (i + 1))
        return Poly(tuple(out))

    def eval(self, x, t) -> GaussianRational:
        """Exact p(x, t); the powers of each variable are tabulated once."""
        powers = []
        for k, v in enumerate((x, t)):
            v = _as_gr(v)
            v = v if v.im else v.re  # real powers scale coefficients without a complex product
            row = [1]
            for _ in range(max((e[k] for e in self.terms), default=0)):
                row.append(row[-1] * v)
            powers.append(row)
        acc = GR_ZERO
        for (i, j), c in self.terms.items():
            acc = acc + c * powers[0][i] * powers[1][j]
        return acc

    def to_json(self):
        return [
            {"exp": list(exp), "coeff": c.to_json()}
            for exp, c in sorted(self.terms.items())
        ]

"""Exact arithmetic core: Gaussian rationals and polynomials over them.

Everything in this module is exact.  Coefficients are rationals of
arbitrary precision, and nothing here evaluates in floats.  `to_floats`
(with `float_endpoint` for the interval end a) is the one way out: every
float that the zero locator and the operator check read is an exact value
divided once by it, correctly rounded, and a value outside float range is
refused with `FloatRangeError`.

A `Poly` is one canonical integer triple (re, im, den): coefficient k is
(re[k] + i im[k]) / den, den > 0, gcd(den, re..., im...) = 1, no trailing
zero.  Every operation (parsing, ring operations, scalar division,
calculus, affine composition, conjugation, jets) runs on the integers and
puts its result in canonical form with one gcd over the whole triple;
`Fraction`s appear only in the `GaussianRational` views (`coeffs`, values
at a point), built when read.  An `MPoly` from the kernel build holds
integer tables over one denominator in the same way and builds its term
dict on first read.  In particular

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

Exact values leave as JSON strings "p/q" or "p" (`_ratio_str`).  Python
refuses to convert an integer of more than `sys.get_int_max_str_digits()`
digits (4300 by default) to a string; that refusal is `DigitLimitError`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Union

RationalLike = Union[int, Fraction, str]


class DigitLimitError(ValueError):
    """An exact value has too many digits to be written as a decimal string."""


class FloatRangeError(ArithmeticError):
    """An exact value has no usable float image: it overflows, or a nonzero
    divisor (such as the interval end a) rounds to 0.0."""


def to_floats(nums, den: int, what: str, divisor: bool = False) -> list:
    """[m / den for m in nums], each correctly rounded (int/int division
    rounds as `Fraction.__float__` does): the one float boundary of the
    package, for the transforms, the M-functions and the kernel.  Raises
    FloatRangeError naming `what` when a value overflows, or, with
    `divisor`, when a nonzero value rounds to 0.0.
    """
    try:
        out = [m / den for m in nums]
    except OverflowError:
        raise FloatRangeError(f"{what} is beyond float range") from None
    if divisor and any(m and not v for m, v in zip(nums, out)):
        raise FloatRangeError(f"{what} rounds to 0.0 as a float")
    return out


def float_endpoint(a) -> float:
    """The interval end a > 0 (a rational or a float) as a float, through
    `to_floats` as a divisor."""
    a = Fraction(a)
    return to_floats((a.numerator,), a.denominator, "the interval end a", divisor=True)[0]


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: an integer "p", a ratio "p/q" or a plain
    decimal such as "0.25".

    Raises ValueError on malformed input, a zero denominator or an exponent
    ("1e5"), which could ask for an integer of any size before any check.
    """
    if "e" in text.lower():
        raise ValueError(f"bad rational literal {text!r}: no exponent is accepted; "
                         "write an integer, p/q or a plain decimal")
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


def _json_parts(obj) -> tuple:
    """(re, im) as Fractions from "p/q", an integer (real) or {"re": .., "im": ..}.

    Any other part (a float, null, a boolean, a list) raises ValueError.
    """
    parts = (obj.get("re", 0), obj.get("im", 0)) if isinstance(obj, dict) else (obj, 0)
    for part in parts:
        if not isinstance(part, (str, int)) or isinstance(part, bool):
            raise ValueError(f"bad Gaussian rational literal {obj!r}")
    return _frac(parts[0]), _frac(parts[1])


def _ratio_str(num: int, den: int) -> str:
    """num / den in lowest terms, written as str(Fraction(num, den)) writes it."""
    g = gcd(num, den)
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # only int.__str__ raises here: the digit limit
        raise DigitLimitError(f"an exact value exceeds the {sys.get_int_max_str_digits()}-digit "
                              "limit of Python's int-to-string conversion") from None


def _json_value(re: int, im: int, den: int):
    """(re + i im) / den as `GaussianRational.to_json` writes it."""
    if not im:
        return _ratio_str(re, den)
    return {"re": _ratio_str(re, den), "im": _ratio_str(im, den)}


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
        return cls(*_json_parts(obj))

    def to_json(self):
        if self.im == 0:
            return _ratio_str(self.re.numerator, self.re.denominator)
        return {"re": _ratio_str(self.re.numerator, self.re.denominator),
                "im": _ratio_str(self.im.numerator, self.im.denominator)}

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


def _shifted_numerators(triple: tuple, x: GaussianRational) -> tuple:
    """(re, im, den, xd) with [s^k] p(x + s) = (re[k] + i im[k]) xd^k / den.

    With x = (xr + i xi)/xd, xd^n p(x + w/xd) has Gaussian-integer
    coefficients over p's denominator (`triple` = p's (re, im, den), left
    unchanged); its w^k coefficient comes from one Taylor shift by xr + i xi.
    """
    (re, im), den = map(list, triple[:2]), triple[2]
    (xr,), (xi,), xd = numerators((x,))
    n = len(re) - 1
    if xd != 1:
        for j in range(n + 1):
            re[j] *= xd ** (n - j)
            im[j] *= xd ** (n - j)
    if xr or xi:
        taylor_shift(re, im, xr, xi)
    return re, im, den * xd ** max(n, 0), xd


class Poly:
    """Univariate polynomial with Gaussian-rational coefficients.

    Held as one canonical integer triple `triple` = (re, im, den): the
    coefficient of x^k is (re[k] + i im[k]) / den, with den > 0,
    gcd(den, re..., im...) = 1 and no trailing zero coefficient; the zero
    polynomial is ((), (), 1).  So two polynomials are equal exactly when
    their triples are.  `coeffs`, the `GaussianRational` tuple in ascending
    powers, is built on first read.
    """

    def __init__(self, coeffs):
        self._set(*numerators([_as_gr(c) for c in coeffs]))

    @classmethod
    def _of(cls, re, im, den: int) -> "Poly":
        """The polynomial with coefficients (re[k] + i im[k]) / den, den > 0."""
        p = cls.__new__(cls)
        p._set(re, im, den)
        return p

    def _set(self, re, im, den: int) -> None:
        """Store (re, im, den) in canonical form: trailing zeros trimmed, gcd divided out."""
        n = len(re)
        while n and not (re[n - 1] or im[n - 1]):
            n -= 1
        g = gcd(den, *re[:n], *im[:n])
        if g == 1:
            self.triple = (tuple(re[:n]), tuple(im[:n]), den)
        else:
            self.triple = (tuple(r // g for r in re[:n]), tuple(m // g for m in im[:n]), den // g)

    @classmethod
    def of(cls, *coeffs) -> "Poly":
        return cls(coeffs)

    @classmethod
    def from_json(cls, items: Iterable) -> "Poly":
        """Coefficient literals (as `GaussianRational.from_json` reads them),
        each part parsed to a `Fraction` and put straight over one denominator."""
        parts = [_json_parts(c) for c in items]
        den = lcm(*(f.denominator for pair in parts for f in pair))
        return cls._of([re.numerator * (den // re.denominator) for re, _ in parts],
                       [im.numerator * (den // im.denominator) for _, im in parts], den)

    def to_json(self):
        re, im, den = self.triple
        return [_json_value(r, m, den) for r, m in zip(re, im)]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.triple == other.triple

    def __hash__(self):
        return hash(self.triple)

    # -- structure ---------------------------------------------------------

    @cached_property
    def coeffs(self) -> tuple:
        return from_numerators(*self.triple)

    @property
    def degree(self) -> int:
        return len(self.triple[0]) - 1

    @property
    def is_zero(self) -> bool:
        return not self.triple[0]

    def coeff(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k <= self.degree else GR_ZERO

    # -- ring operations ---------------------------------------------------

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the least common denominator."""
        (ar, ai, ad), (br, bi, bd) = self.triple, other.triple
        g = gcd(ad, bd)
        sa, sb = bd // g, ad // g * sign
        return Poly._of([x * sa + y * sb for x, y in zip_longest(ar, br, fillvalue=0)],
                        [x * sa + y * sb for x, y in zip_longest(ai, bi, fillvalue=0)],
                        ad // g * bd)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __mul__(self, other) -> "Poly":
        re, im, den = self.triple
        if not isinstance(other, Poly):  # a scalar
            (gr,), (gi,), gd = numerators((_as_gr(other),))
            return Poly._of([x * gr - y * gi for x, y in zip(re, im)],
                            [x * gi + y * gr for x, y in zip(re, im)], den * gd)
        br, bi, bd = other.triple
        out_re = [0] * (len(re) + len(br) - 1 or 1)
        out_im = out_re[:]
        for i, (x, y) in enumerate(zip(re, im)):
            for j, (u, v) in enumerate(zip(br, bi), i):
                out_re[j] += x * u - y * v
                out_im[j] += x * v + y * u
        return Poly._of(out_re, out_im, den * bd)

    __rmul__ = __mul__

    def __truediv__(self, r) -> "Poly":
        """p / r for a nonzero scalar r = (r_r + i r_i) / r_d: coefficient
        (x + i y) / den becomes (x + i y)(r_r - i r_i) r_d / (den |r|^2)."""
        pr, pi, den = self.triple
        (rr,), (ri,), rd = numerators((_as_gr(r),))
        d = den * (rr * rr + ri * ri)
        if not d:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly._of([(x * rr + y * ri) * rd for x, y in zip(pr, pi)],
                        [(y * rr - x * ri) * rd for x, y in zip(pr, pi)], d)

    # -- calculus ----------------------------------------------------------

    def __call__(self, x) -> GaussianRational:
        """p(x) by Horner's rule on integers: with x = (xr + i xi) / xd,
        xd^n p(x) = sum_k c_k (xr + i xi)^k xd^(n-k) over den."""
        re, im, den = self.triple
        (xr,), (xi,), xd = numerators((_as_gr(x),))
        sr = si = 0
        scale = 1  # xd^(n-k)
        for r, m in zip(reversed(re), reversed(im)):
            sr, si = sr * xr - si * xi + r * scale, sr * xi + si * xr + m * scale
            scale *= xd
        d = den * scale // xd if re else 1  # den xd^n
        return GaussianRational(Fraction(sr, d), Fraction(si, d))

    def derivative(self) -> "Poly":
        re, im, den = self.triple
        return Poly._of([k * r for k, r in enumerate(re)][1:],
                        [k * m for k, m in enumerate(im)][1:], den)

    def antiderivative(self) -> "Poly":
        """The antiderivative vanishing at 0: c_k / (k+1) over den lcm(1..n)."""
        re, im, den = self.triple
        ell = lcm(*range(1, len(re) + 1))
        return Poly._of([0] + [r * (ell // k) for k, r in enumerate(re, 1)],
                        [0] + [m * (ell // k) for k, m in enumerate(im, 1)], den * ell)

    def integral(self, lo, hi) -> GaussianRational:
        """int_lo^hi p = sum_k c_k (hi^(k+1) - lo^(k+1)) / (k+1), reduced once."""
        re, im, den = self.triple
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
        # the t^k coefficient of p(c0 + c1 t) is [s^k] p(c0 + s) c1^k, over
        # den yd^k; scaled by yd^(n-k) it is over den yd^n, n = degree
        re, im, den, xd = _shifted_numerators(self.triple, _as_gr(c0))
        (yr,), (yi,), yd = numerators((_as_gr(c1),))
        yr, yi = yr * xd, yi * xd
        n = len(re) - 1
        pr, pi = 1, 0  # (yr + i yi)^k
        for k in range(n + 1):
            s = yd ** (n - k)
            re[k], im[k] = (re[k] * pr - im[k] * pi) * s, (re[k] * pi + im[k] * pr) * s
            pr, pi = pr * yr - pi * yi, pr * yi + pi * yr
        return Poly._of(re, im, den * yd ** max(n, 0))

    def jet_numerators(self, x) -> tuple:
        """(re, im, den) with p^(k)(x) = (re[k] + i im[k]) / den, k = 0..degree.

        p^(k)(x) = k! [s^k] p(x + s), read off one Taylor shift; k! and
        xd^k are folded into the integers.
        """
        re, im, den, xd = _shifted_numerators(self.triple, _as_gr(x))
        f = 1  # k! xd^k
        for k in range(1, len(re)):
            f *= k * xd
            re[k] *= f
            im[k] *= f
        return re, im, den

    def conjugate(self) -> "Poly":
        """Coefficient-wise conjugate; equals conj(p(t)) for real t."""
        re, im, den = self.triple
        return Poly._of(re, [-m for m in im], den)

    def reflect(self, a) -> "Poly":
        """t -> conj(p(a-t))."""
        return self.compose_affine(a, -1).conjugate()

    def times_x(self, k: int = 1) -> "Poly":
        if self.is_zero:
            return self
        re, im, den = self.triple
        return Poly._of((0,) * k + re, (0,) * k + im, den)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


class MPoly:
    """Polynomial in (x, t) over Gaussian rationals: a kernel piece of U.

    `table` = (re, im, den) holds integer rows: the coefficient of x^i t^j
    is (re[i][j] + i im[i][j]) / den.  `terms` maps the exponent pairs
    (i, j) of the nonzero coefficients to `GaussianRational`s; a piece
    built `from_table` builds it on first read.  Two pieces are equal when
    their term dicts are.
    """

    def __init__(self, terms: dict):
        clean = {}
        for exp, c in terms.items():
            c = _as_gr(c)
            if c:
                clean[tuple(exp)] = c
        self.terms = clean
        re, im, den = numerators(list(clean.values()))
        rows = [[0] * (1 + max((j for _, j in clean), default=0))
                for _ in range(1 + max((i for i, _ in clean), default=0))]
        table_re, table_im = rows, [row[:] for row in rows]
        for (i, j), r, m in zip(clean, re, im):
            table_re[i][j], table_im[i][j] = r, m
        self.table = (table_re, table_im, den)

    @classmethod
    def from_table(cls, re: list, im: list, den: int) -> "MPoly":
        """The piece with coefficients (re[i][j] + i im[i][j]) / den, den > 0."""
        p = cls.__new__(cls)
        p.table = (re, im, den)
        return p

    @cached_property
    def terms(self) -> dict:
        den = self.table[2]
        return {(i, j): GaussianRational(Fraction(r, den), Fraction(m, den))
                for i, j, r, m in self._entries()}

    def _entries(self) -> list:
        """(i, j, re, im) of every nonzero table entry, in sorted (i, j) order."""
        re, im, _ = self.table
        return [(i, j, r, m) for i, (row_re, row_im) in enumerate(zip(re, im))
                for j, (r, m) in enumerate(zip(row_re, row_im)) if r or m]

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"MPoly(terms={self.terms!r})"

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
        """[{"exp": [i, j], "coeff": ...}] in sorted (i, j) order, each
        coefficient reduced by one gcd per part."""
        den = self.table[2]
        return [{"exp": [i, j], "coeff": _json_value(r, m, den)}
                for i, j, r, m in self._entries()]

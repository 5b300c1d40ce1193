"""Exact arithmetic core: polynomials over the Gaussian rationals.

Everything in this module is exact.  Coefficients are rationals of
arbitrary precision, and nothing here evaluates in floats.  `to_floats`
(with `float_endpoint` for the interval end a) is the one way out: every
float that the zero locator and the operator check read is an exact value
divided once by it, correctly rounded, and a value outside float range is
refused with `FloatRangeError`.

An exact scalar is an integer triple (re, im, den) = (re + i im) / den,
den > 0, reduced once (`_reduced`): the shape of one `Poly` coefficient.
Values at a point (`Poly.__call__`, `MPoly.eval`) and definite integrals
(`Poly.integral`) are returned as such triples, and `_json_value` writes
one.  A `Poly` is one canonical integer triple (re, im, den): coefficient
k is (re[k] + i im[k]) / den, den > 0, gcd(den, re..., im...) = 1, no
trailing zero.  Every operation (parsing, ring operations, scalar
division, calculus, reflection, conjugation, jets) runs on the integers
and puts its result in canonical form with one gcd over the whole triple.
An `MPoly`, a kernel piece, is one integer table over one denominator,
and its exact operations run on its rows as `Poly`s.  In particular

* spec literals (`Poly.from_json`): a plain ASCII "p" or "p/q" goes
  straight to `int` and over one lcm, so no `Fraction` is built; every
  other literal goes through `parse_rational`, which words every refusal;
* definite integrals (`Poly.integral`, over real bounds; the masses are
  over [0, a]): int_lo^hi p = sum_k c_k (hi^(k+1) - lo^(k+1)) / (k+1) is
  one sum of integer products over den q^(n+1) lcm(1..n+1), with q the
  bounds' common denominator;
* division by a scalar (`Poly.__truediv__`): each coefficient of p / r is
  one Gaussian-integer product (p_r + i p_i)(r_r - i r_i) r_d over
  den |r|^2, for r = (r_r + i r_i) / r_d;
* derivative jets (`Poly.jet_numerators`) at a real x (the transforms
  take them at 0 and a): p^(k)(x) = k! [s^k] p(x + s) from one Taylor
  shift of each part (`_shift_real`, integer multiply-adds, none at
  x = 0), with k! and the powers of x's denominator folded into the
  integers, so the transforms' Laurent numerators (which `symbol` sums
  over) are integer lists, each entry reduced once when read.  The same
  shift gives the reflection t -> conj p(a - t).

Exact values leave as JSON strings "p/q" or "p" (`_ratio_str`).  Python
refuses to convert an integer of more than `sys.get_int_max_str_digits()`
digits (4300 by default) to a string; that refusal is `DigitLimitError`.
"""

from __future__ import annotations

import re
import sys
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


_EXPONENT = re.compile(r"[\d.][eE][-+]?\d")  # every exponent that `Fraction` reads


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: an integer "p", a ratio "p/q" or a plain
    decimal such as "0.25".

    Raises ValueError on malformed input, a zero denominator or an exponent
    ("1e5"), which could ask for an integer of any size before any check.
    """
    if _EXPONENT.search(text):
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


def _literal(part) -> tuple:
    """(p, q) with part = p / q, q > 0 and not always in lowest terms, for
    one JSON part: an integer or a rational literal.

    A plain ASCII "p" or "p/q" (an optional "-" on p) goes straight to
    `int`; every other literal goes through `parse_rational`, whose checks
    and error text it keeps (decimals, signs on q, "+", "_", non-ASCII
    digits, a zero q, an exponent, a literal past int's digit limit).  A
    float, null, a boolean or a list raises ValueError.
    """
    if isinstance(part, str):
        num, slash, den = part.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isdigit() and digits.isascii() and (
                not slash or den.isdigit() and den.isascii()):
            try:
                p, q = int(num), int(den) if slash else 1
            except ValueError:  # past the digit limit: parse_rational words it
                pass
            else:
                if q:
                    return p, q
        f = parse_rational(part)
        return f.numerator, f.denominator
    if isinstance(part, int) and not isinstance(part, bool):
        return part, 1
    raise ValueError(f"bad rational literal {part!r}: write a string such as \"p/q\" or an integer")


def rational_from_json(value) -> Fraction:
    """One rational from JSON, read as one part of a coefficient literal."""
    return Fraction(*_literal(value))


_PART_KEYS = frozenset(("re", "im"))


def _json_parts(obj) -> tuple:
    """(re, im) as `_literal` pairs (p, q) from "p/q", an integer (real) or
    {"re": .., "im": ..} with one or both of those keys.

    Any other part (a float, null, a boolean, a list), any other key and an
    empty object raise ValueError.
    """
    if isinstance(obj, dict):
        if not obj or not obj.keys() <= _PART_KEYS:
            unknown = [k for k in obj if k not in _PART_KEYS]
            raise ValueError(f"bad Gaussian rational literal {obj!r}: "
                             + (f"unknown key {unknown[0]!r}" if unknown else "no key")
                             + "; the keys are 're' and 'im'")
        parts = (obj.get("re", 0), obj.get("im", 0))
    else:
        parts = (obj, 0)
    for part in parts:
        if not isinstance(part, (str, int)) or isinstance(part, bool):
            raise ValueError(f"bad Gaussian rational literal {obj!r}")
    return _literal(parts[0]), _literal(parts[1])


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
    """The exact scalar (re + i im) / den as JSON: "p/q" (or "p") when real,
    else {"re": "p/q", "im": "r/s"}."""
    if not im:
        return _ratio_str(re, den)
    return {"re": _ratio_str(re, den), "im": _ratio_str(im, den)}


def _reduced(re: int, im: int, den: int) -> tuple:
    """The exact scalar (re + i im) / den, den > 0, in lowest terms."""
    g = gcd(re, im, den)
    return re // g, im // g, den // g


def _shift_real(c: list, x: int) -> None:
    """In place: the coefficients of c(x + s) from those of c(s), for an
    integer list c in ascending powers and an integer x.

    Horner's rule run once per degree, O(n^2) integer multiply-adds (von
    zur Gathen and Gerhard 1997, method B), plain additions when x = 1;
    each pass keeps its running value in one accumulator.
    """
    n = len(c) - 1
    if not any(c):
        return
    for i in range(n):
        acc = c[n]
        if x == 1:
            for j in range(n - 1, i - 1, -1):
                acc += c[j]
                c[j] = acc
        else:
            for j in range(n - 1, i - 1, -1):
                acc = c[j] + x * acc
                c[j] = acc


def _point(x) -> tuple:
    """(xr, xi, xd) with x = (xr + i xi) / xd, xd > 0, for an exact scalar
    triple or a rational (an int, a Fraction or a literal)."""
    if isinstance(x, tuple):
        return x
    x = _frac(x)
    return x.numerator, 0, x.denominator


def _shifted_numerators(triple: tuple, x) -> tuple:
    """(re, im, den, xd) with [s^k] p(x + s) = (re[k] + i im[k]) xd^k / den,
    for a real x.

    With x = xr/xd, xd^n p(x + w/xd) has Gaussian-integer coefficients over
    p's denominator (`triple` = p's (re, im, den), left unchanged); its w^k
    coefficient comes from one Taylor shift of each part by xr.
    """
    (re, im), den = map(list, triple[:2]), triple[2]
    x = _frac(x)
    xr, xd = x.numerator, x.denominator
    n = len(re) - 1
    if xd != 1:
        for j in range(n + 1):
            re[j] *= xd ** (n - j)
            im[j] *= xd ** (n - j)
    if xr:
        _shift_real(re, xr)
        _shift_real(im, xr)
    return re, im, den * xd ** max(n, 0), xd


class Poly:
    """Univariate polynomial with Gaussian-rational coefficients.

    Held as one canonical integer triple `triple` = (re, im, den): the
    coefficient of x^k is (re[k] + i im[k]) / den, with den > 0,
    gcd(den, re..., im...) = 1 and no trailing zero coefficient; the zero
    polynomial is ((), (), 1).  So two polynomials are equal exactly when
    their triples are.
    """

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
        """The polynomial with the given coefficients in ascending powers,
        each a rational or an (re, im) pair of rationals."""
        parts = [tuple(map(_frac, c)) if isinstance(c, tuple) else (_frac(c), Fraction(0))
                 for c in coeffs]
        den = lcm(*(f.denominator for pair in parts for f in pair))
        return cls._of([r.numerator * (den // r.denominator) for r, _ in parts],
                       [m.numerator * (den // m.denominator) for _, m in parts], den)

    @classmethod
    def from_json(cls, items: Iterable) -> "Poly":
        """Coefficient literals: "p/q" or an integer (real) or {"re": "p/q",
        "im": "r/s"} (one key may be left out), as `_json_parts` reads them.
        Each part is read as integers p / q (`_literal`) and put straight
        over one denominator; canonical form reduces the triple once."""
        parts = [_json_parts(c) for c in items]
        den = lcm(*(q for pair in parts for _, q in pair))
        return cls._of([p * (den // q) for (p, q), _ in parts],
                       [p * (den // q) for _, (p, q) in parts], den)

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

    @property
    def degree(self) -> int:
        return len(self.triple[0]) - 1

    @property
    def is_zero(self) -> bool:
        return not self.triple[0]

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
            gr, gi, gd = _point(other)
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
        rr, ri, rd = _point(r)
        d = den * (rr * rr + ri * ri)
        if not d:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly._of([(x * rr + y * ri) * rd for x, y in zip(pr, pi)],
                        [(y * rr - x * ri) * rd for x, y in zip(pr, pi)], d)

    # -- calculus ----------------------------------------------------------

    def __call__(self, x) -> tuple:
        """The exact scalar p(x), by Horner's rule on integers: with
        x = (xr + i xi) / xd, xd^n p(x) = sum_k c_k (xr + i xi)^k xd^(n-k)
        over den."""
        re, im, den = self.triple
        xr, xi, xd = _point(x)
        sr = si = 0
        scale = 1  # xd^(n-k)
        for r, m in zip(reversed(re), reversed(im)):
            sr, si = sr * xr - si * xi + r * scale, sr * xi + si * xr + m * scale
            scale *= xd
        d = den * scale // xd if re else 1  # den xd^n
        return _reduced(sr, si, d)

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

    def integral(self, lo, hi) -> tuple:
        """The exact scalar int_lo^hi p = sum_k c_k (hi^(k+1) - lo^(k+1)) /
        (k+1) for real bounds, on integer powers only, reduced once."""
        re, im, den = self.triple
        lo, hi = _frac(lo), _frac(hi)
        top = len(re)
        ell = lcm(*range(1, top + 1))
        # with bounds L/q and H/q, term k is c_k (H^m - L^m) q^(top-m) (ell/m)
        # over q^top ell, m = k + 1
        q = lcm(lo.denominator, hi.denominator)
        low, high = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
        sr = si = 0
        hm = lm = 1  # H^m, L^m
        for m, (r, i) in enumerate(zip(re, im), 1):
            hm *= high
            lm *= low
            w = (hm - lm) * q ** (top - m) * (ell // m)
            sr += r * w
            si += i * w
        return _reduced(sr, si, den * q ** top * ell)

    # -- transforms of the argument ---------------------------------------

    def jet_numerators(self, x) -> tuple:
        """(re, im, den) with p^(k)(x) = (re[k] + i im[k]) / den, k = 0..degree.

        p^(k)(x) = k! [s^k] p(x + s), read off one Taylor shift; k! and
        xd^k are folded into the integers.  x is real; at x = 0 no shift
        runs.
        """
        re, im, den, xd = _shifted_numerators(self.triple, x)
        f = 1  # k! xd^k
        for k in range(1, len(re)):
            f *= k * xd
            re[k] *= f
            im[k] *= f
        return re, im, den

    def conjugate(self) -> "Poly":
        """Coefficient-wise conjugate; equals conj(p(t)) for real t.  Negating
        the imaginary parts keeps the triple canonical, so no gcd runs."""
        re, im, den = self.triple
        p = Poly.__new__(Poly)
        p.triple = (re, tuple(-m for m in im), den)
        return p

    def reflect(self, a) -> "Poly":
        """t -> conj(p(a-t)) for a real a: the Taylor shift by a gives p(a + s);
        s = -t negates the odd coefficients, and the conjugation the
        imaginary parts."""
        re, im, den, xd = _shifted_numerators(self.triple, a)
        f = 1  # (-xd)^k
        for k in range(len(re)):
            re[k], im[k] = re[k] * f, -im[k] * f
            f *= -xd
        return Poly._of(re, im, den)

    def times_x(self, k: int = 1) -> "Poly":
        if self.is_zero:
            return self
        re, im, den = self.triple
        return Poly._of((0,) * k + re, (0,) * k + im, den)

    def __repr__(self):
        return f"Poly({self.triple!r})"


class MPoly:
    """Polynomial in (x, t) over Gaussian rationals: a kernel piece of U.

    Its one state, `table` = (re, im, den), holds integer rows: the
    coefficient of x^i t^j is (re[i][j] + i im[i][j]) / den, den > 0.
    `terms` lists the nonzero entries, built once; equality, evaluation
    and integration read the x-rows as integer `Poly`s in t.
    """

    def __init__(self, re: list, im: list, den: int):
        self.table = (re, im, den)

    @cached_property
    def terms(self) -> list:
        """(i, j, re, im) of every nonzero table entry, in sorted (i, j) order."""
        re, im, _ = self.table
        return [(i, j, r, m) for i, (row_re, row_im) in enumerate(zip(re, im))
                for j, (r, m) in enumerate(zip(row_re, row_im)) if r or m]

    def rows(self) -> list:
        """[p_0, .., p_n]: p = sum_i x^i p_i(t), each p_i a `Poly`, p_n != 0."""
        re, im, den = self.table
        rows = [Poly._of(r, m, den) for r, m in zip(re, im)]
        while rows and rows[-1].is_zero:
            rows.pop()
        return rows

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.rows() == other.rows()

    @property
    def is_zero(self) -> bool:
        return not self.rows()

    def __mul__(self, other) -> "MPoly":
        """Product with a scalar g = (g_r + i g_i) / g_d, on the integers."""
        re, im, den = self.table
        gr, gi, gd = _point(other)
        return MPoly([[x * gr - y * gi for x, y in zip(*row)] for row in zip(re, im)],
                     [[x * gi + y * gr for x, y in zip(*row)] for row in zip(re, im)], den * gd)

    def definite_integral(self, lo, hi) -> Poly:
        """int_lo^hi p(s, t) ds as a polynomial in t; each bound is a rational or "t"."""
        out = Poly.of()
        for i, row in enumerate(self.rows(), 1):  # s^(i-1) -> (hi^i - lo^i) / i
            for bound, sign in ((hi, 1), (lo, -1)):
                if bound == "t":
                    out += row.times_x(i) * Fraction(sign, i)
                else:
                    out += row * (sign * _frac(bound) ** i / i)
        return out

    def eval(self, x, t) -> tuple:
        """The exact scalar p(x, t): the rows' values at t, over one
        denominator, as the coefficients of a `Poly` in x."""
        values = [row(t) for row in self.rows()]
        den = lcm(*(d for *_, d in values))
        return Poly._of([r * (den // d) for r, _, d in values],
                        [m * (den // d) for _, m, d in values], den)(x)

    def to_json(self):
        """[{"exp": [i, j], "coeff": ...}] in sorted (i, j) order, each
        coefficient reduced by one gcd per part."""
        den = self.table[2]
        return [{"exp": [i, j], "coeff": _json_value(r, m, den)} for i, j, r, m in self.terms]

"""Truth-labelled problem generator for the benchmark.

Works on Gaussian rationals written as pairs (re, im) of `Fraction`s and on
polynomials as ascending coefficient lists of such pairs.  It shares no code
with the package under test: labels come from the closed form

    F(z) = e^{iaz} (-s G_a(s)) + s G_0(s),   s = i/z,
    G_x(s) = sum_k g^{(k)}(x) s^k,

where g = conj(psi1) for F1 and g(t) = psi2(a - t) for F21.  A nonzero
common zero z of F1 and F21 is algebraic when the determinant
D = s^2 (G2_a G1_0 - G1_a G2_0) is not identically zero, and then
e^{iaz} is transcendental (Hermite-Lindemann), so both G_a and G_0 of both
densities vanish at s = i/z.  Hence:

* generic: D != 0 and gcd(G1_a, G1_0) = 1 certify that the pair has no
  common zero (z = 0 is excluded by nonzero masses);
* scaled-coincident: psi2(x) = c conj(psi1(a - x)) gives F21 = c F1;
* shared-zero: G1_a(s0) = G1_0(s0) = G2_a(s0) = G2_0(s0) = 0 for a chosen
  rational s0, so F1 and F21 both vanish at z0 = i/s0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P

GENERIC = "generic"
SCALED_COINCIDENT = "scaled-coincident"
SHARED_ZERO = "shared-zero"

ZERO = (Fraction(0), Fraction(0))


# -- Gaussian rationals and polynomials over them --------------------------

def q_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def q_sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def q_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def q_div(u, v):
    d = v[0] * v[0] + v[1] * v[1]
    return ((u[0] * v[0] + u[1] * v[1]) / d, (u[1] * v[0] - u[0] * v[1]) / d)


def q_conj(u):
    return (u[0], -u[1])


def q_real(x):
    return (Fraction(x), Fraction(0))


def trim(p):
    p = list(p)
    while p and p[-1] == ZERO:
        p.pop()
    return p


def p_add(p, q):
    n = max(len(p), len(q))
    return trim(q_add(p[k] if k < len(p) else ZERO, q[k] if k < len(q) else ZERO)
                for k in range(n))


def p_sub(p, q):
    n = max(len(p), len(q))
    return trim(q_sub(p[k] if k < len(p) else ZERO, q[k] if k < len(q) else ZERO)
                for k in range(n))


def p_mul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] = q_add(out[i + j], q_mul(u, v))
    return trim(out)


def p_scale(p, c):
    return trim(q_mul(u, c) for u in p)


def p_eval(p, x):
    acc = ZERO
    for c in reversed(p):
        acc = q_add(q_mul(acc, x), c)
    return acc


def p_deriv(p):
    return trim(q_mul(q_real(k), p[k]) for k in range(1, len(p)))


def p_conj(p):
    return [q_conj(u) for u in p]


def p_reflect(p, a):
    """x -> p(a - x), without conjugation."""
    lin = [q_real(a), q_real(-1)]
    acc = []
    for c in reversed(p):
        acc = p_add(p_mul(acc, lin), [c])
    return acc


def p_mass(p, a):
    """Exact integral of p over [0, a]."""
    a = q_real(a)
    acc = ZERO
    apow = a
    for k, c in enumerate(p):
        acc = q_add(acc, q_mul(c, q_mul(apow, q_real(Fraction(1, k + 1)))))
        apow = q_mul(apow, a)
    return acc


def g_series(g, x):
    """Coefficients of G_x(s) = sum_k g^{(k)}(x) s^k."""
    out = []
    d = list(g)
    x = q_real(x)
    while d:
        out.append(p_eval(d, x))
        d = p_deriv(d)
    return trim(out)


def densities_g(psi1, psi2, a):
    """Integrands g1 = conj(psi1) of F1 and g2 = psi2(a - t) of F21."""
    return p_conj(psi1), p_reflect(psi2, a)


# -- labelled pairs ---------------------------------------------------------

@dataclass(frozen=True)
class Pair:
    psi1: list
    psi2: list
    a: Fraction
    label: str
    s0: Fraction | None = None  # shared-zero classes: F1(i/s0) = F21(i/s0) = 0
    c: Fraction | None = None   # scaled-coincident: psi2 = c conj(psi1(a - x))

    @property
    def z0(self) -> complex | None:
        return None if self.s0 is None else complex(0.0, 1.0 / float(self.s0))


def rand_coeff(rng: random.Random, height: int, gaussian: bool):
    def one():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))
    return (one(), one() if gaussian else Fraction(0))


def rand_poly(rng, deg, height, gaussian):
    """Random polynomial of exactly the given degree."""
    while True:
        p = [rand_coeff(rng, height, gaussian) for _ in range(deg + 1)]
        if p[-1] != ZERO:
            return p


def rand_admissible(rng, deg, height, gaussian, a):
    while True:
        p = rand_poly(rng, deg, height, gaussian)
        if p_mass(p, a) != ZERO:
            return p


def _vanishing_g(rng, deg, height, gaussian, a, s0):
    """Random g of the given degree (>= 2) with G_a(s0) = G_0(s0) = 0.

    G_x(s0) = sum_j c_j w_j(x) with w_0 = 1 and w_1 = x + s0, so the two
    conditions fix c_0 and c_1 from the randomly drawn higher coefficients.
    """
    if deg < 2:
        raise ValueError("a shared zero needs density degree >= 2")
    s = q_real(s0)
    while True:
        g = rand_poly(rng, deg, height, gaussian)
        g[0] = g[1] = ZERO
        r_a = p_eval(g_series(g, a), s)
        r_0 = p_eval(g_series(g, 0), s)
        c1 = q_div(q_sub(r_0, r_a), q_real(a))
        c0 = q_sub(q_sub(ZERO, r_0), q_mul(c1, s))
        g[0], g[1] = c0, c1
        if p_mass(g, a) != ZERO:
            return g


def endpoint_regular(psi1, psi2, a) -> bool:
    """Both integrands are nonzero at t = 0 and t = a.  Then far from the
    origin the zeros of each transform approach a horizontal line,
    Im z = log|g(a) / g(0)| / a, at spacing 2 pi / a; an integrand that
    vanishes at an end bends that line towards infinity."""
    return all(p_eval(g, q_real(x)) != ZERO
               for g in densities_g(psi1, psi2, a) for x in (0, a))


def generic_pair(rng, deg1, deg2, height, gaussian, a, regular=False) -> Pair:
    while True:
        psi1 = rand_admissible(rng, deg1, height, gaussian, a)
        psi2 = rand_admissible(rng, deg2, height, gaussian, a)
        if regular and not endpoint_regular(psi1, psi2, a):
            continue
        if certify_no_common_zero(psi1, psi2, a):
            return Pair(psi1, psi2, a, GENERIC)


def scaled_coincident_pair(rng, deg, height, gaussian, a, c) -> Pair:
    c = Fraction(c)
    if c in (0, 1):
        raise ValueError("scale must be rational and not 0 or 1")
    psi1 = rand_admissible(rng, deg, height, gaussian, a)
    psi2 = p_scale(p_conj(p_reflect(psi1, a)), q_real(c))
    return Pair(psi1, psi2, a, SCALED_COINCIDENT, c=c)


def shared_zero_pair(rng, deg1, deg2, height, gaussian, a, s0) -> Pair:
    """Both degrees >= 2 and one >= 3: two quadratics with a shared zero
    are proportional, which makes the pair scaled-coincident instead."""
    if min(deg1, deg2) < 2 or max(deg1, deg2) < 3:
        raise ValueError("shared-zero pairs need degrees >= 2 and one >= 3")
    s0 = Fraction(s0)
    while True:
        g1 = _vanishing_g(rng, deg1, height, gaussian, a, s0)
        g2 = _vanishing_g(rng, deg2, height, gaussian, a, s0)
        psi1, psi2 = p_conj(g1), p_reflect(g2, a)
        if determinant_nonzero(psi1, psi2, a):
            return Pair(psi1, psi2, a, SHARED_ZERO, s0=s0)


# -- search rectangles ------------------------------------------------------

def closed_form_parts(g, a):
    """z -> (e^{iaz} (-s G_a(s)), s G_0(s)) with s = i/z, the two parts of
    F(z) = int_0^a e^{izt} g(t) dt, in floats for an array of z."""
    a = float(a)
    g0 = [complex(float(re), float(im)) for re, im in g_series(g, 0)]
    ga = [complex(float(re), float(im)) for re, im in g_series(g, a)]

    def parts(z):
        s = 1j / z
        return -s * np.exp(1j * a * z) * P.polyval(s, ga), s * P.polyval(s, g0)
    return parts


def clearance(parts, z):
    """min over the last axis of z of |F| / (|first part| + |second part|):
    small only near a zero of F, and about a times the distance to it there."""
    osc, plain = parts(z)
    return np.min(np.abs(osc + plain) / (np.abs(osc) + np.abs(plain)), axis=-1)


def clear_rect(pair: Pair, half_width: float, half_height: float, step=0.1):
    """Rectangle near [-half_width, half_width] x [-half_height, half_height]
    whose edges pass as far from the zeros of F1 and F21 as the generator
    can place them: each horizontal edge within 1 of its nominal height,
    each vertical edge within pi / a of its nominal abscissa (one period of
    the zeros far from the origin).  The argument principle on an edge
    that passes close to a zero is ill-conditioned."""
    forms = [closed_form_parts(g, pair.a) for g in densities_g(pair.psi1, pair.psi2, pair.a)]
    reach = math.pi / float(pair.a)

    def best(candidates, lines):
        worst = np.minimum(*(clearance(parts, lines) for parts in forms))
        return round(float(candidates[np.argmax(worst)]), 3)

    xs = np.arange(-half_width - reach, half_width + reach + step, step)
    dy = np.linspace(-1.0, 1.0, 21)
    y0, y1 = (best(c, xs + 1j * c[:, None]) for c in (dy - half_height, dy + half_height))
    ys = np.arange(y0, y1 + step, step)
    dx = np.linspace(-reach, reach, 63)
    x0, x1 = (best(c, c[:, None] + 1j * ys) for c in (dx - half_width, dx + half_width))
    return (x0, x1, y0, y1)


# -- label certificates -----------------------------------------------------

def _g_quad(psi1, psi2, a):
    g1, g2 = densities_g(psi1, psi2, a)
    return g_series(g1, a), g_series(g1, 0), g_series(g2, a), g_series(g2, 0)


#: Prime p = 1 (mod 4) with a square root of -1; reduction modulo one of
#: the Gaussian primes above p maps Q(i) coefficients into GF(p).
PRIME = 998244353
SQRT_M1 = pow(3, (PRIME - 1) // 4, PRIME)


def _red(u):
    """A Gaussian rational modulo the prime (its denominators are small)."""
    re, im = (x.numerator * pow(x.denominator, -1, PRIME) % PRIME for x in u)
    return (re + SQRT_M1 * im) % PRIME


def _series_mod_p(g, x):
    """Coefficients of G_x(s) = sum_k g^{(k)}(x) s^k modulo the prime,
    untrimmed: the last one is deg(g)! times g's leading coefficient."""
    c, xm = [_red(u) for u in g], _red(q_real(x))
    out = []
    while c:
        acc = 0
        for v in reversed(c):
            acc = (acc * xm + v) % PRIME
        out.append(acc)
        c = [k * c[k] % PRIME for k in range(1, len(c))]
    return out


def _mul_mod_p(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] = (out[i + j] + u * v) % PRIME
    return out


def _gcd_degree_mod_p(f, g):
    while g:
        inv = pow(g[-1], -1, PRIME)
        while len(f) >= len(g):
            c = f[-1] * inv % PRIME
            shift = len(f) - len(g)
            f = [(x - c * g[k - shift]) % PRIME if k >= shift else x
                 for k, x in enumerate(f)]
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def determinant_nonzero(psi1, psi2, a) -> bool:
    """D / s^2 = G2_a G1_0 - G1_a G2_0 is not the zero polynomial."""
    g1a, g10, g2a, g20 = _g_quad(psi1, psi2, a)
    return bool(p_sub(p_mul(g2a, g10), p_mul(g1a, g20)))


def certify_no_common_zero(psi1, psi2, a) -> bool:
    """Nonzero masses, D != 0, and gcd(G1_a, G1_0) = 1.

    Both are checked modulo a prime of Z[i]: a D that is nonzero mod p is
    nonzero (and one that is zero mod p is checked exactly), and when the
    leading coefficients survive the reduction, a common factor over Q(i)
    would survive it too, so a constant gcd mod p proves a constant gcd
    over Q(i).  A pair whose reduction is unlucky is simply not certified.
    """
    if p_mass(psi1, a) == ZERO or p_mass(psi2, a) == ZERO:
        return False
    g1, g2 = densities_g(psi1, psi2, a)
    g1a, g10, g2a, g20 = (_series_mod_p(g, x) for g in (g1, g2) for x in (a, 0))
    if not g1a[-1] or not g10[-1]:
        return False
    d = [(u - v) % PRIME for u, v in zip(_mul_mod_p(g2a, g10), _mul_mod_p(g1a, g20))]
    if not any(d) and not determinant_nonzero(psi1, psi2, a):
        return False
    return _gcd_degree_mod_p(g1a, g10) == 0


def vanishes_at(pair: Pair) -> bool:
    """All four G's vanish at s0 exactly."""
    s = q_real(pair.s0)
    g1, g2 = densities_g(pair.psi1, pair.psi2, pair.a)
    return all(p_eval(g_series(g, x), s) == ZERO
               for g in (g1, g2) for x in (pair.a, 0))


def check_label(pair: Pair) -> bool:
    """Re-derive the pair's label from its densities."""
    if pair.label == GENERIC:
        return certify_no_common_zero(pair.psi1, pair.psi2, pair.a)
    if pair.label == SCALED_COINCIDENT:
        ref = p_conj(p_reflect(pair.psi1, pair.a))
        return pair.c not in (0, 1) and p_scale(ref, q_real(pair.c)) == pair.psi2
    if pair.label == SHARED_ZERO:
        return (pair.s0 != 0 and vanishes_at(pair)
                and determinant_nonzero(pair.psi1, pair.psi2, pair.a)
                and p_mass(pair.psi1, pair.a) != ZERO
                and p_mass(pair.psi2, pair.a) != ZERO)
    raise ValueError(f"unknown label {pair.label!r}")


# -- problem files ------------------------------------------------------------

def coeff_json(u):
    if u[1] == 0:
        return str(u[0])
    return {"re": str(u[0]), "im": str(u[1])}


def problem_json(pair: Pair, tasks, rect=None, grid_n=64, tol=1e-10, delta=1e-3):
    obj = {
        "a": str(pair.a),
        "psi1": [coeff_json(u) for u in pair.psi1],
        "psi2": [coeff_json(u) for u in pair.psi2],
        "coeff_class": "rational",
        "grid_n": grid_n,
        "tol": tol,
        "delta": delta,
        "tasks": list(tasks),
    }
    if rect is not None:
        obj["rect"] = dict(zip(("re_min", "re_max", "im_min", "im_max"), rect))
    return obj

"""Symbol V(u), differential operator L(D), and the common-zero verdict.

Each transform is an exponential polynomial in w = 1/z,

    F(z) = e^{iaz} P(w) + Q(w),    p_j = -i^j g^(j-1)(a),  q_j = i^j g^(j-1)(0),

with g its density (`transform` module doc).  `decide` reads the spec's
pair as it is: P1, Q1 of F_1 = `closed_form(Psi_1)` (density g1 =
conj Psi_1) and P21, Q21 of F_{2,1} = R(F_2), R(F)(z) = e^{iaz} conj F(conj z)
= (a, conj Q, conj P), the integer triples the two transforms hold, which
`Verdict.transforms` hands on to the zero locator.  Everything reads

    D = P1 Q21 - P21 Q1.

* L and V.  For the normalized pair ordered so that Q = deg Psi_1 >=
  deg Psi_2, differentiating Tf Q+1 times gives a differential operator
  L(D) plus a convolution with the symbol V(x - t), with

      L(D) = sum_{s<Q} W_{Q-1-s} D^s,   V(u) = sum_{m<=Q} W_{Q+m} u^m / m!,

  and W_m = i^m [w^(m+2)] D is the paper's boundary sum sum_{i+j=m}
  [(-1)^i g1^(i)(a) Psi_2^(j)(a) - (-1)^j Psi_2^(i)(0) g1^(j)(0)], as the
  jets in D show.  `l_operator` (m < Q) and `v_symbol` (Q <= m <= 2Q) take
  that pair and sum only the range they read, on integer numerators.
* Mirror tests.  Coincidence psi_1 = c conj psi_2(a-x) <=> F_{2,1} = c' F_1
  <=> Q21 = c' Q1 (Q is g's jet at 0 times fixed units); symmetry psi =
  c conj psi(a-x) <=> F = c R(F) <=> Q = c conj P.  `_equal` tests both
  for some c != 0, with no masses: g = c conj g(a-x) twice gives |c| = 1,
  and nonzero masses fix c by F(0) = conj R to what normalizing divides
  out, so the normalized pair is equal (to its mirror).
* Scale.  Normalizing divides g1, so F_1, by conj R1 and F_2 by conj R2,
  so R(F_2) by R2, with masses R_k = int_0^a Psi_k: D_norm = D / (conj R1 R2).
* Swap.  Exchanging Psi_1 and Psi_2 gives F_1' = F_2, F_{2,1}' = R(F_1), so
  D' = P2 conj P1 - conj Q1 Q2 = conj D (bars on the coefficients), and
  W'_m vanishes where W_m does.  So the order of L(D) and whether D = 0
  need no swap and no masses: `decide` reads W_m, m < Q = the larger
  degree, up to the first that is nonzero: l_order = Q - 1 - m0.
* For (F, R(F)), D = P conj P - Q conj Q: a real zero of F, or one whose
  conjugate is one too, is a common zero of F and R(F) (ROADMAP item 2).

V vanishes identically.  Put T_r(x) = sum_{i+j=r} (-1)^j Psi_2^(i)(x) g1^(j)(x);
then W_r = T_r(a) - T_r(0).  In the derivative of T_r the inner terms
telescope, T_r' = Psi_2^(r+1) g1 + (-1)^r Psi_2 g1^(r+1), and for r >= Q
both derivatives of order r+1 > Q >= deg Psi_2 vanish, hence W_r = 0 and
V = 0 for every polynomial pair.  `decide` therefore reads only L(D);
`v_symbol` stays as a checked artifact of the paper's construction.

The verdict.  At a common zero z0 != 0 of F_1 and F_{2,1}, (e^{iaz0}, 1)
solves the 2x2 system with rows (P1, Q1) and (P21, Q21) at w0 = 1/z0, so
D(w0) = 0.  If D != 0, z0 is thus algebraic, e^{iaz0} is transcendental
(Hermite-Lindemann), and e^{iaz0} P1(w0) + Q1(w0) = 0 forces P1(w0) =
Q1(w0) = 0, and likewise for P21, Q21: the common nonzero zeros are 1/w0
for the roots w0 of G = gcd(P1, Q1, P21, Q21), each numerator first
divided, exactly, by its power of w (w = 0 is z = infinity).  G comes
from images of the Gaussian-integer numerators (a denominator is a
constant factor) under i -> +-s, ring maps Z[i] -> GF(p) for the primes
p = 1 (mod 4) from PRIME up, s^2 = -1 (mod p).  By Gauss's lemma, if each
input keeps its leading coefficient mod p, G's image keeps its degree and
divides every image: a degree-0 image gcd proves G = 1, with certificate
(p, s), and otherwise a candidate rebuilt from images of least degree is
G once it divides all four numerators (`_laurent_gcd`).  No low-end zero
of an image is stripped: it may come from a factor w - c of G with p | c.
z = 0 is a common zero iff F_1(0) = conj R1 and F_{2,1}(0) = R2 vanish.
So the outcome is NoCommonZeros when G = 1 and a mass is nonzero, and
otherwise CommonZeros (a FloatRangeError if a zero has no float image).
With D = 0 no z0 need be algebraic, and a pair that is not coincident,
such as psi_1 = x - x^2, psi_2 = -1 + 3x - x^2, a = 1 (F_{2,1} =
(1 - iz) F_1), is Inconclusive (ROADMAP 1b).  The paper's closed order
formula for the monomial family x^m (a-x)^n is a test oracle
(`tests/conftest.py`), checked against the verdict's l_order (acceptance
criterion 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import zip_longest

import numpy as np

from .exact import FloatRangeError, Poly, _frac, _json_value, _reduced
# normalize_pair is not called here; perfbench/spans.py wraps symbol.normalize_pair
from .kernel import NormalizedPair, normalize_pair
from .transform import (ClosedTransform, _conjugate, _times_i_powers, _to_complex,
                        closed_form, reflected_transform)


class OrderViolationError(ValueError):
    """deg Psi_1 < deg Psi_2; caller must order the pair first."""


def _w(f1: ClosedTransform, f21: ClosedTransform, lo: int, hi: int) -> tuple:
    """(re, im, den) with W_m = (re[m - lo] + i im[m - lo]) / den, for lo <= m < hi:
    W_m = i^m [w^(m+2)] D, D = P1 Q21 - P21 Q1 (module doc)."""
    (p1r, p1i, p1d), (q1r, q1i, q1d) = f1.p, f1.q
    (p2r, p2i, p2d), (q2r, q2i, q2d) = f21.p, f21.q
    n1, n2 = len(p1r), len(p2r)
    den = math.lcm(p1d * q2d, p2d * q1d)
    s_scale, t_scale = den // (p1d * q2d), den // (p2d * q1d)
    dr, di = [], []
    for m in range(lo, hi):
        sr = si = tr = ti = 0
        for k in range(max(0, m - n2 + 1), min(m, n1 - 1) + 1):
            j = m - k
            sr += p1r[k] * q2r[j] - p1i[k] * q2i[j]
            si += p1r[k] * q2i[j] + p1i[k] * q2r[j]
            tr += p2r[j] * q1r[k] - p2i[j] * q1i[k]
            ti += p2r[j] * q1i[k] + p2i[j] * q1r[k]
        dr.append(sr * s_scale - tr * t_scale)
        di.append(si * s_scale - ti * t_scale)
    return _times_i_powers(dr, di, den, lo)


def _equal(left, right, conjugate: bool = False) -> bool:
    """left = c right (c conj right if `conjugate`) for a constant c != 0, on
    integer triples (module doc: mirror tests); missing entries count as 0."""
    (lr, li, _), (rr, ri, _) = left, _conjugate(right) if conjugate else right
    rows = list(zip_longest(lr, li, rr, ri, fillvalue=0))
    x0, y0, u0, v0 = next((row for row in rows if any(row)), (0, 0, 0, 0))
    # left_k right_0 == right_k left_0 at the first nonzero row
    return bool((x0 or y0) and (u0 or v0)) and all(
        x * u0 - y * v0 == u * x0 - v * y0 and x * v0 + y * u0 == u * y0 + v * x0
        for x, y, u, v in rows)


def _transforms(pair: NormalizedPair) -> tuple:
    """(F_1, F_{2,1}) of the normalized pair, which must be ordered."""
    if pair.psi1.degree < pair.psi2.degree:
        raise OrderViolationError("requires deg Psi_1 >= deg Psi_2")
    return closed_form(pair.psi1, pair.a), reflected_transform(pair.psi2, pair.a)


def v_symbol(pair: NormalizedPair) -> Poly:
    """Exact symbol V(u): its u^m coefficient is W_{Q+m} / m!, m = 0..Q,
    on integers over den Q!."""
    q = pair.psi1.degree
    re, im, den = _w(*_transforms(pair), q, 2 * q + 1)
    f = [math.factorial(q) // math.factorial(m) for m in range(q + 1)]  # q! / m!
    return Poly._of([x * c for x, c in zip(re, f)], [y * c for y, c in zip(im, f)], den * f[0])


def l_operator(pair: NormalizedPair) -> tuple:
    """Exact coefficients of L(D) = sum_s W_{Q-1-s} D^s in ascending powers
    of D, each reduced once, up to the highest nonzero one: () is L = 0."""
    re, im, den = _w(*_transforms(pair), 0, pair.psi1.degree)
    w = [_reduced(r, m, den) for r, m in zip(re, im)]  # W_m, m < Q
    m0 = next((m for m, (r, i, _) in enumerate(w) if r or i), len(w))
    return tuple(reversed(w[m0:]))


#: p = 1 (mod 4), the first such prime above 2^30: the primes p = 1 (mod 4)
#: from here up are the moduli of the search for G (module doc: the verdict).
PRIME = 1073741833


def _is_prime(n: int) -> bool:
    """Trial division of n > 1 by 2, 3 and the d = 6k +- 1 <= isqrt(n) (any
    other d has the factor 2 or 3): about 11,000 divisions near PRIME, and
    `_modulus` is cached, so a process tests each prime once."""
    return n in (2, 3) or n % 2 != 0 and n % 3 != 0 and all(
        n % d and n % (d + 2) for d in range(5, math.isqrt(n) + 1, 6))


@cache
def _modulus(n: int) -> tuple:
    """(p, s): the least prime p >= n, p = n = 1 (mod 4), n > 1, and
    s = c^((p-1)/4), c the least non-residue mod p: s^2 = -1 (mod p)."""
    while not _is_prime(n):
        n += 4
    c = next(c for c in range(2, n) if pow(c, (n - 1) // 2, n) == n - 1)
    return n, pow(c, (n - 1) // 4, n)


def _gcd(polys: list, p: int) -> list:
    """Monic gcd over GF(p) of nonzero ascending coefficient lists (reduced
    in place); Euclid, shortest first, stops once the gcd has degree 0."""
    g, *rest = sorted(polys, key=len)
    for f in rest:
        while f and len(g) > 1:
            c = pow(f[-1], -1, p)
            while len(g) >= len(f):  # g <- g mod f
                q, shift = g[-1] * c % p, len(g) - len(f)
                for k, y in enumerate(f, shift):
                    g[k] = (g[k] - q * y) % p
                while g and not g[-1]:
                    g.pop()
            g, f = f, g
    c = pow(g[-1], -1, p)
    return [x * c % p for x in g]


def _ratrec(u: int, m: int):
    """(a, b) with a = b u (mod m), |a|, b <= sqrt(m/2) and gcd(a, b) = 1,
    or None (Wang, Guy & Davenport, SIGSAM Bull. 16, 1982)."""
    bound, (r0, r1, t0, t1) = math.isqrt(m // 2), (m, u, 0, 1)
    while r1 > bound:
        r0, r1, t0, t1 = r1, r0 % r1, t1, t0 - r0 // r1 * t1
    if abs(t1) <= bound and math.gcd(r1, t1) == 1:
        return (r1, t1) if t1 > 0 else (-r1, -t1)


def _divides(c: tuple, f: tuple) -> bool:
    """c | f in Q(i)[w], for Gaussian-integer lists (re, im), c's leading
    coefficient a real integer L: long division of L^(deg f - deg c + 1) f
    by c, exact in Z[i][w] at each step, leaves remainder 0."""
    (cr, ci), m = c, len(c[0]) - 1
    scale = cr[m] ** max(len(f[0]) - m, 0)
    fr, fi = [x * scale for x in f[0]], [y * scale for y in f[1]]
    for shift in range(len(fr) - 1 - m, -1, -1):
        qr, qi = fr.pop() // cr[m], fi.pop() // cr[m]
        for k, (x, y) in enumerate(zip(cr[:m], ci[:m]), shift):
            fr[k] -= qr * x - qi * y
            fi[k] -= qr * y + qi * x
    return not any(fr) and not any(fi)


def _laurent_gcd(*triples) -> tuple:
    """(G, certificate): the monic gcd of the triples' polynomials without
    their powers of w, as a `Poly`, and {p, sqrt_m1} if an image proved G = 1.
    Brown's modular gcd (J. ACM 18, 1971): the images under i -> +-s give
    u, v = x +- s y for each coefficient x + i y of G; the primes of least
    image degree are combined by CRT and rebuilt by rational reconstruction,
    and a candidate that one more prime leaves unchanged is G if it divides
    every stripped numerator exactly: its degree, the least, is >= deg G."""
    stripped = []
    for re, im, _ in triples:
        k = next(k for k, (r, i) in enumerate(zip(re, im)) if r or i)
        stripped.append((re[k:], im[k:]))
    n, least, last = PRIME, math.inf, None
    while True:
        p, s = _modulus(n)
        n, images = p + 4, []
        for t in (s, p - s):
            fs = [[(r + t * i) % p for r, i in zip(re, im)] for re, im in stripped]
            if not all(f[-1] for f in fs):  # a leading coefficient vanishes mod p
                break
            images.append(_gcd(fs, p))
            if len(images[-1]) == 1:  # 0 = the image degree >= deg G
                return Poly._of((1,), (0,), 1), {"p": p, "sqrt_m1": t}
        if len(images) < 2 or len(images[0]) != len(images[1]) or len(images[0]) > least:
            continue
        if len(images[0]) != least:  # the first prime, or one of lower image degree
            least, modulus, residues = len(images[0]), 1, [0] * 2 * len(images[0])
        h, c = (p + 1) // 2, pow(modulus, -1, p)  # 1/2 and 1/modulus mod p; 1/s = -s
        xy = [(u + v) * h for u, v in zip(*images)] + [(v - u) * h * s for u, v in zip(*images)]
        residues = [r + modulus * ((x - r) * c % p) for r, x in zip(residues, xy)]
        modulus *= p
        parts = [_ratrec(r, modulus) for r in residues]
        if None not in parts:
            den = math.lcm(*(b for _, b in parts))
            nums = [a * (den // b) for a, b in parts]
            candidate = Poly._of(nums[:least], nums[least:], den)
            if candidate == last and all(_divides(candidate.triple[:2], f) for f in stripped):
                return candidate, None
            last = candidate


OUTCOME_NO_COMMON = "NoCommonZeros"
OUTCOME_COMMON = "CommonZeros"
OUTCOME_COINCIDE = "ZeroSetsCoincide"
OUTCOME_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    """The verdict; `transforms` is the spec-order (F_1, F_{2,1}) it was read
    from, kept for the zero locator and not reported."""

    outcome: str
    theorem: str
    no_real_zeros: bool
    no_conjugate_pairs: bool
    diagnostics: dict = field(default_factory=dict)
    transforms: tuple = field(default=(), compare=False, repr=False)

    def to_json(self):
        keys = ("outcome", "theorem", "no_real_zeros", "no_conjugate_pairs", "diagnostics")
        return {k: getattr(self, k) for k in keys}


def decide(psi1: Poly, psi2: Poly, a) -> Verdict:
    """The common-zero verdict for F_1 and F_{2,1}, read from the spec-order
    transforms (module doc); the masses give `normalizers` and decide z = 0.
    `swapped` records deg Psi_1 < deg Psi_2; the structural flags refer to
    the density of higher degree (Psi_2 if swapped)."""
    a = _frac(a)
    transforms = f1, f21 = closed_form(psi1, a), reflected_transform(psi2, a)
    swapped = psi1.degree < psi2.degree
    r1, r2 = psi1.integral(0, a), psi2.integral(0, a)
    diagnostics: dict = {"swapped": swapped, "normalizers": [
        _json_value(*r) for r in ((r2, r1) if swapped else (r1, r2))]}

    f = f21 if swapped else f1  # F_2 = c R(F_2) iff F_{2,1} = conj(c) R(F_{2,1})
    asym = not _equal(f.q, f.p, conjugate=True)  # psi(x) != c conj(psi(a-x))
    diagnostics["coincidence"] = coincident = _equal(f21.q, f1.q)  # psi_1 = c conj psi_2(a-x)
    if coincident:
        return Verdict(OUTCOME_COINCIDE, "coincidence case", asym, asym,
                       diagnostics, transforms)

    top = max(psi1.degree, psi2.degree)
    m0 = next((m for m in range(top) if _w(f1, f21, m, m + 1)[:2] != ([0], [0])), None)
    diagnostics["l_order"] = None if m0 is None else top - 1 - m0

    if m0 is None:
        diagnostics["reason"] = "D \u2261 0 without coincidence (ROADMAP 1b)"
        return Verdict(OUTCOME_INCONCLUSIVE, "no applicable criterion",
                       asym, asym, diagnostics, transforms)

    g, diagnostics["certificate"] = _laurent_gcd(f1.p, f1.q, f21.p, f21.q)
    origin = not (r1[0] or r1[1] or r2[0] or r2[1])  # F_1(0) = conj R1, F_{2,1}(0) = R2
    if not g.degree and not origin:
        return Verdict(OUTCOME_NO_COMMON, "Hermite-Lindemann: gcd(P1, Q1, P21, Q21) = 1",
                       asym, asym, diagnostics, transforms)
    coeffs = _to_complex(g.triple, "a coefficient of the gcd G")
    with np.errstate(all="ignore"):  # a root w that is 0.0 as a float gives z = inf
        zeros = [1 / w for w in np.roots(coeffs[::-1])] + [0j] * origin
    if not np.isfinite(zeros).all():
        raise FloatRangeError("a common zero 1/w of the gcd G is beyond float range")
    diagnostics["gcd"] = g.to_json()
    diagnostics["common_zeros"] = [{"re": float(z.real), "im": float(z.imag)} for z in zeros]
    return Verdict(OUTCOME_COMMON, "Hermite-Lindemann: 1/w at the roots w of gcd(P1, Q1, "
                   "P21, Q21), and 0 iff both masses vanish", asym, asym, diagnostics, transforms)

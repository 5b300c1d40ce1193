"""Argument-principle zero localization for the exponential transforms.

Zeros inside a rectangle are counted by the winding integral of F'/F over
the boundary, found with their multiplicities from the contour's higher
moments, isolated by recursive quadrisection where that fails, and
polished by Newton iteration with F' from F's own float coefficients
(Horner's rule with derivative in `eval_many`).  This is the numerical
side of the artifact: it never trusts the symbolic verdict and vice versa.

Contour evaluation is fused.  A winding integral cuts each edge of one
box into Gauss-Legendre panels; the panel levels asked for go to one
`eval_many` call, which returns F and F' together (`with_derivative=True`),
sharing e^{iaz} and 1/z, and one stacked array of the terms times
u^0..u^_MOMENT_CAP (u the scaled node) gives every moment.
`_certified_winding` doubles the panels from 4 to 256.  No box certifies
at the first level, which has nothing to agree with, so levels 4 and 8
(960 points) share one call and each later level has one of its own; at
256 panels the moment stack is 4.6 MB.
The seven candidate cut lines of a split are scored in one call too.

Moment solve.  The same nodes also give the scaled moments
sigma_k = (1/2 pi i) * integral of ((z - c)/r)^k F'/F dz, k <= _MOMENT_CAP,
with c the box centre and r its half-diagonal; they are the power sums of
the scaled zeros (z_j - c)/r, which lie in the unit disk (Delves and
Lyness 1967).  Each certified box comes with them at no extra evaluation.
A box with n zeros, 1 <= n <= (_MOMENT_CAP + 1) // 2, is solved in one
step from sigma_0..sigma_{2n-1} (`_pencil`; Kravanja, Sakurai and Van
Barel, BIT 39, 1999): the numerical rank of the Hankel matrix
H_0 = [sigma_{i+j}] is the number of distinct zeros, the eigenvalues of
the pencil (H_1, H_0), H_1 = [sigma_{i+j+1}], are those zeros, and a
Vandermonde solve gives their multiplicities.  A multiple zero is one
eigenvalue, found to rounding, where the roots of a polynomial in the
power sums would split it by about sqrt(eps).  One vectorized Newton run
on F polishes every zero, a zero of multiplicity m by z - m F/F', one
fused `eval_many` call per step; near a multiple zero F is rounding
noise, and a step that does not lower |F| there is undone.

Acceptance.  The solve is accepted only if the multiplicities round to
positive integers summing to n, every Newton run converges inside the
box padded by _ACCEPT_PAD * tol, and each multiple zero passes its
cluster check.  Zeros that end closer than the subdivision floor
100 * tol merge into one, at their weighted mean, with the sum of their
multiplicities, so a start that runs to a zero another start found makes
a multiple zero that its check refuses.  Otherwise the box is
quadrisected and its children are solved the same way; a cell below the
floor whose zeros are still unsolved raises ClusterUnresolvedError.
`locate_zeros` also raises it rather than report a zero outside the
guarded box or two zeros of different cells closer than the floor.

Split retry.  `_split_coord` ranks its candidate lines by the smallest
|F| sampled on them.  If the children of the best pair of cuts do not
certify, or their counts do not add up to the parent's, the next-ranked
pair is tried; only when every pair fails is the best pair's error
raised.  A zero on or near the first cut line therefore no longer ends
the search.

Clusters.  A zero of multiplicity m > 1 is reported only if a tiny box
around it, of half-width max(20 tol, 1e-9), certifies winding m
(`_cluster_certified`).  Within about eps^(1/m) of such a zero F is
rounding noise, and a contour there certifies 0 or nothing (a double
zero of a degree-4 density at z = 3 certifies 0 up to a half-width of
2e-8 and 2 from 2e-6; a triple one at 5/2 + i/2, 3 only from 2e-3), so
a box that does not certify m is tried ten times wider, up to
_CLUSTER_REACH.  In floats,
m zeros that close to one another cannot be told from one zero of
multiplicity m.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .transform import ClosedTransform


class BoundaryZeroError(RuntimeError):
    """Boundary could not be nudged away from a zero of F."""


class NonIntegerWindingError(RuntimeError):
    """Contour quadrature failed to certify an integer winding number."""


class ClusterUnresolvedError(RuntimeError):
    """Subdivision floor reached with zeros unsolved, or zeros closer than it."""


@dataclass(frozen=True)
class SearchRect:
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    boundary_margin: float = 0.05

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError("search rectangle bounds and boundary_margin must be finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("search rectangle has empty interior")
        if self.boundary_margin < 0:
            raise ValueError("boundary_margin must be >= 0")
        reach = self.boundary_margin * _NUDGES * (_NUDGES + 1) / 2  # `_guarded_box`'s last box
        if max(map(abs, (self.re_min, self.re_max, self.im_min, self.im_max))) + reach > _FAR:
            raise ValueError("search rectangle, moved out by every boundary nudge, "
                             f"reaches past {_FAR:g}")

    def mirrored(self) -> "SearchRect":
        return SearchRect(self.re_min, self.re_max, -self.im_max, -self.im_min,
                          self.boundary_margin)


@dataclass(frozen=True)
class ZeroRecord:
    z: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class ZeroSet:
    zeros: tuple
    rect: SearchRect
    total_count: int

    def points(self) -> list:
        return [r.z for r in self.zeros]

    def to_json(self):
        zeros = [{"re": r.z.real, "im": r.z.imag, "multiplicity": r.multiplicity,
                  "residual": r.residual} for r in self.zeros]
        return {"rect": vars(self.rect), "total_count": self.total_count, "zeros": zeros}


# -- contour machinery ------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

#: Panels per edge tried in turn by `_certified_winding`.
_PANEL_LEVELS = (4, 8, 16, 32, 64, 128, 256)


def _box_corners(box):
    x0, x1, y0, y1 = box
    return [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]


def _boundary_samples(box) -> np.ndarray:
    cs = _box_corners(box)
    t = np.linspace(0.0, 1.0, 128, endpoint=False)
    return np.concatenate([a + (b - a) * t for a, b in zip(cs, cs[1:] + cs[:1])])


#: Highest moment sigma_k every contour computes.  A box of n zeros is
#: solved from sigma_0..sigma_{2n-1} (`_pencil`), so a box of at most
#: (_MOMENT_CAP + 1) // 2 = 7 zeros is solved and one with more is
#: quadrisected first.  Every moment costs one more multiply and sum per
#: contour node, on every box evaluated.  A rectangle 40 wide and 10 high
#: held at most 6 zeros for the densities of degree <= 8 at a = 1 tried, so
#: it is solved in one step; wider ones are split until their boxes hold
#: this few.
_MOMENT_CAP = 13

#: Singular values of the Hankel matrix H_0 below this fraction of its
#: largest count as zero: the rest are its numerical rank, the number of
#: distinct zeros in the box.  The double and triple zeros tried left
#: 1e-16 to 3e-14 (rounding); two simple zeros a scaled distance s apart
#: leave about s^2 / 6, so zeros 1e-6 r or more apart stay distinct (two at
#: 3 and 3 + 1e-5 in a box of r = 10.5 do; at 1e-11 they were one double).
_RANK_CUT = 1e-13

#: Index i + j of the Hankel matrices [sigma_{i+j}] of every box solved.
_HANKEL = np.add.outer(np.arange(_MOMENT_CAP // 2 + 1), np.arange(_MOMENT_CAP // 2 + 1))


def _box_scale(box):
    """Centre c and half-diagonal r of the box: (z - c) / r maps it into the unit disk."""
    x0, x1, y0, y1 = box
    return complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), 0.5 * math.hypot(x1 - x0, y1 - y0)


@functools.cache
def _panel_nodes(levels):
    """The contour nodes of the panel levels `levels`, read-only and built
    once per levels tuple: one row per panel, the four edges' rows of each
    level in turn, as (Gauss-Legendre nodes t on [0, 1], each row's edge,
    each row's panel width, first row of each level)."""
    rows = []
    for panels in levels:
        edges = np.linspace(0.0, 1.0, panels + 1)
        width = edges[1:] - edges[:-1]
        t = 0.5 * width[:, None] * _GL_NODES + 0.5 * (edges[1:] + edges[:-1])[:, None]
        rows.append((np.tile(t, (4, 1)), np.repeat(np.arange(4), panels), np.tile(width, 4)))
    table = [np.concatenate(parts) for parts in zip(*rows)]
    table.append(np.cumsum([0] + [4 * panels for panels in levels[:-1]]))
    for part in table:
        part.flags.writeable = False
    return tuple(table)


def _winding_integrals(F, box, levels) -> np.ndarray:
    """Scaled contour moments of the box at each panel level, shaped
    (len(levels), _MOMENT_CAP + 1).

    Entry k is sigma_k = (1/2 pi i) * integral of ((z - c)/r)^k F'/F dz
    around the box, k = 0.._MOMENT_CAP, with c and r from `_box_scale`:
    sigma_0 is the winding number, the number of zeros inside, and sigma_k
    the sum of the k-th powers of their scaled positions (Delves and
    Lyness 1967).  At a level of n panels every edge is cut into n
    Gauss-Legendre panels.  All levels' nodes go to one `eval_many` call
    (F and F'); each row of nodes is summed, then each level's rows in
    order, so a level's moments are bit for bit those of a call for that
    level alone.
    """
    t, edge, width, first = _panel_nodes(levels)
    corners = np.array(_box_corners(box))
    start, delta = corners[edge], (corners[[1, 2, 3, 0]] - corners)[edge]
    centre, radius = _box_scale(box)
    z = start[:, None] + delta[:, None] * t
    f, fp = F.eval_many(z.ravel(), with_derivative=True)
    # stack[k] holds the moment-k summands, the terms times ((z - c)/r)^k
    stack = np.empty((_MOMENT_CAP + 1,) + z.shape, dtype=complex)
    np.multiply((delta * 0.5 * width)[:, None] * _GL_WEIGHTS,
                (fp / f).reshape(z.shape), out=stack[0])
    u = (z - centre) / radius
    for k in range(1, _MOMENT_CAP + 1):
        np.multiply(stack[k - 1], u, out=stack[k])
    return np.add.reduceat(np.sum(stack, axis=2), first, axis=1).T / (2j * math.pi)


def _certified_winding(F, box):
    """The box's winding number, certified, and its scaled moments sigma
    (see `_winding_integrals`) at the certifying level: (count, sigma).

    The panels double from 4 to 256 until two successive integrals agree
    to 1e-3 and lie within 0.1 of an integer; a box that has not certified
    at the last level raises, and so does a box whose integral is not
    finite (F vanishes at a contour node), at once.  The first level has
    no predecessor to agree with, so it shares one evaluation with the
    second.
    """
    prev = None
    for levels in [_PANEL_LEVELS[:2]] + [(n,) for n in _PANEL_LEVELS[2:]]:
        with np.errstate(divide="ignore", invalid="ignore"):
            sigmas = _winding_integrals(F, box, levels)
        for panels, sigma in zip(levels, sigmas):
            val = complex(sigma[0])
            if not np.isfinite(val):
                raise NonIntegerWindingError(
                    f"non-finite winding integral on {box} at {panels} panels: {val}")
            n = round(val.real)
            if prev is not None and abs(val - prev) < 1e-3 and abs(val - n) <= 0.1:
                return n, sigma
            prev = val
    raise NonIntegerWindingError(f"winding integral did not certify an integer on {box}: {prev}")


#: Times `_guarded_box` moves the boundary outward before it gives up.
_NUDGES = 5

#: Farthest coordinate a search rectangle may reach, nudges included:
#: `eval_many` forms 1/z, and |z|^2 overflows past about 1e154.
_FAR = 1e150


def _guarded_box(F, rect: SearchRect):
    """The rectangle as a box, moved outward until no boundary sample is small.

    A sample is too small when |F| there is at most 1e-8 (1 + max |F|) over
    the 128 samples per edge; nudge k = 1, 2, ... moves every edge out by
    k * rect.boundary_margin more.
    """
    box = (rect.re_min, rect.re_max, rect.im_min, rect.im_max)
    for k in range(_NUDGES + 1):
        vals = np.abs(F.eval_many(_boundary_samples(box)))
        if float(np.min(vals)) > 1e-8 * (1.0 + float(np.max(vals))):
            return box
        m = rect.boundary_margin * (k + 1)
        box = (box[0] - m, box[1] + m, box[2] - m, box[3] + m)
    raise BoundaryZeroError(f"boundary |F| below threshold after {_NUDGES} nudges")


def count_zeros(F: ClosedTransform, rect: SearchRect) -> int:
    """Number of zeros of F inside the rectangle, with multiplicity."""
    return _certified_winding(F, _guarded_box(F, rect))[0]


# -- localization -----------------------------------------------------------

def _pencil(sigma, n):
    """The distinct scaled zeros of a box of n zeros and their
    multiplicities, from sigma_0..sigma_{2n-1}; None if the multiplicities
    do not round to positive integers summing to n.

    H_0 = [sigma_{i+j}] and H_1 = [sigma_{i+j+1}], i, j < n, are
    V^T M V and V^T M U V, V the Vandermonde matrix of the distinct zeros,
    M their multiplicities and U the zeros on a diagonal.  So the numerical
    rank k of H_0 is the number of distinct zeros, the eigenvalues of the
    pencil of their leading k x k blocks (V^T M V with V square there) are
    the zeros, and sum_j m_j u_j^p = sigma_p, p < k, gives the multiplicities
    (Kravanja, Sakurai and Van Barel, BIT 39, 1999).  sigma_0 is taken as
    n, its certified value, so for n = 1 the zero is sigma_1.
    """
    s = np.array(sigma[:2 * n], dtype=complex)
    s[0] = n  # the certified count: sigma_0 exactly
    sv = np.linalg.svd(s[_HANKEL[:n, :n]], compute_uv=False)
    k = int(np.count_nonzero(sv > _RANK_CUT * sv[0]))
    u = np.linalg.eigvals(np.linalg.solve(s[_HANKEL[:k, :k]], s[_HANKEL[:k, :k] + 1]))
    if k == n:  # n distinct zeros: each is simple
        return u, np.ones(n, dtype=int)
    mult = np.rint(np.linalg.lstsq(np.vander(u, increasing=True).T, s[:k], rcond=None)[0].real)
    if np.any(mult < 1) or mult.sum() != n:
        return None
    return u, mult.astype(int)


def _newton(F, z0, m, tol: float, box):
    """Newton from every start in z0 at once: the converged points, or None.

    A point of multiplicity m (an integer array, one per start) steps by
    z - m F/F', which converges quadratically to a zero of that
    multiplicity.  Per simple point, a step with F' = 0, or one that leaves
    the box padded by its larger side, fails, and so does a point still
    moving after 60 steps; a point stops once |dz| <= tol.  One point
    failing fails all of them.  Within about
    eps^(1/m) of a zero of multiplicity m > 1, F is rounding noise and the
    step goes anywhere: such a point stops at the first step that would
    leave the padded box or not lower |F|, the step undone.  Each step is
    one fused `eval_many` call for the points still moving; when none is
    left, one more step polishes the simple points.
    """
    x0, x1, y0, y1 = box
    pad = max(x1 - x0, y1 - y0)
    z = np.array(z0, dtype=complex)
    back, low = z.copy(), np.full(z.size, np.inf)  # each point before its last step, and |F| there
    moving = np.arange(z.size)
    for _ in range(60):
        f, fp = F.eval_many(z[moving], with_derivative=True)
        if m.max() > 1:  # a multiple zero's step that did not lower |F| is undone
            keep = (m[moving] == 1) | (np.abs(f) < low[moving])
            z[moving[~keep]] = back[moving[~keep]]
            moving, f, fp = moving[keep], f[keep], fp[keep]
            back[moving], low[moving] = z[moving], np.abs(f)
        if np.any(fp == 0):
            return None
        dz = m[moving] * f / fp
        zm = z[moving] - dz
        inside = ((x0 - pad <= zm.real) & (zm.real <= x1 + pad)
                  & (y0 - pad <= zm.imag) & (zm.imag <= y1 + pad))
        if not np.all(inside | (m[moving] > 1)):
            return None
        z[moving[inside]] = zm[inside]
        moving = moving[inside & (np.abs(dz) > tol)]
        if moving.size == 0:
            f, fp = F.eval_many(z, with_derivative=True)
            return z - np.divide(f, fp, out=np.zeros_like(z), where=(fp != 0) & (m == 1))
    return None


#: Candidate cut lines, as fractions of the side, in order of preference.
_SPLIT_FRACS = (0.5, 0.44, 0.56, 0.38, 0.62, 0.32, 0.68)


def _split_coord(F, lo, hi, other_lo, other_hi, vertical) -> list:
    """Candidate split positions, best first.

    Each cut line is sampled at 33 points, all lines in one `eval_many`
    call.  Lines rank by the smallest |F| seen on them, largest first;
    ties keep the order of _SPLIT_FRACS.
    """
    cs = [lo + frac * (hi - lo) for frac in _SPLIT_FRACS]
    c = np.array(cs)[:, None]
    t = np.linspace(other_lo, other_hi, 33)
    z = (c + 1j * t) if vertical else (t + 1j * c)
    mins = np.min(np.abs(F.eval_many(z.ravel())).reshape(z.shape), axis=1)
    order = sorted(range(len(cs)), key=lambda k: -mins[k])
    return [cs[k] for k in order]


#: A Newton result counts as its cell's zero only within this many
#: multiples of `tol` outside the cell.
_ACCEPT_PAD = 10.0

#: Widest half-width `_cluster_certified` tries for a multiple zero's box:
#: a triple zero of the degree-6 densities tried certifies from 2e-3.
_CLUSTER_REACH = 1e-2


def _in_box(z, box, pad=0.0):
    x0, x1, y0, y1 = box
    return x0 - pad <= z.real <= x1 + pad and y0 - pad <= z.imag <= y1 + pad


def _moment_solve(F, box, count, sigma, tol, floor):
    """The box's `count` zeros from its scaled moments, as (z, multiplicity)
    pairs, or None.

    The pencil's zeros start one vectorized Newton run, each with its
    multiplicity.  Zeros that end closer than `floor` merge into one, at
    their weighted mean, with the sum of their multiplicities.  The result
    is accepted only if every start converges inside the box padded by
    _ACCEPT_PAD * tol and a tiny box around each multiple zero certifies
    its multiplicity (`_cluster_certified`).
    """
    solved = _pencil(sigma, count)
    if solved is None:
        return None
    c, r = _box_scale(box)
    z = _newton(F, c + r * solved[0], solved[1], tol, box)
    if z is None or not all(_in_box(w, box, pad=_ACCEPT_PAD * tol) for w in z):
        return None
    merged = []
    for w, m in zip(z, solved[1]):
        for v, k in [p for p in merged if abs(w - p[0]) < floor][:1]:
            merged.remove((v, k))
            w, m = (k * v + m * w) / (k + m), k + m
        merged.append((complex(w), int(m)))
    if not all(m == 1 or _cluster_certified(F, w, m, tol) for w, m in merged):
        return None
    return merged


def _cluster_certified(F, z, m, tol):
    """Whether a tiny box around z certifies winding m.

    The box has half-width max(20 tol, 1e-9), and is tried again ten times
    wider while that stays within _CLUSTER_REACH: within about eps^(1/m)
    of a zero of multiplicity m, F is rounding noise, and there a box's
    winding does not certify or certifies 0.
    """
    eps = max(20.0 * tol, 1e-9)
    while True:
        with contextlib.suppress(NonIntegerWindingError):
            box = (z.real - eps, z.real + eps, z.imag - eps, z.imag + eps)
            if _certified_winding(F, box)[0] == m:
                return True
        eps *= 10.0
        if eps > _CLUSTER_REACH:
            return False


def _quadrisect(F, box, count):
    """Four children of the box and their (count, sigma) pairs; the counts sum to count.

    The ranked cut lines of `_split_coord` are paired best with best,
    second with second, and so on.  The children are certified one by one;
    a pair with a child that does not certify, or whose counts do not add
    up, gives way to the next.  If none works, the best pair's error is
    raised.
    """
    x0, x1, y0, y1 = box
    first_error = None
    for xs, ys in zip(_split_coord(F, x0, x1, y0, y1, vertical=True),
                      _split_coord(F, y0, y1, x0, x1, vertical=False)):
        children = [(lo, hi, bottom, top) for bottom, top in ((y0, ys), (ys, y1))
                    for lo, hi in ((x0, xs), (xs, x1))]
        try:
            results = [_certified_winding(F, child) for child in children]
        except NonIntegerWindingError as exc:
            first_error = first_error or exc
            continue
        counts = [n for n, _ in results]
        if sum(counts) == count:
            return children, results
        first_error = first_error or NonIntegerWindingError(
            f"child counts {counts} do not sum to parent count {count}")
    raise first_error


def locate_zeros(F: ClosedTransform, rect: SearchRect, tol: float = 1e-10) -> ZeroSet:
    """Every zero in the rectangle with its multiplicity, from contour
    moments or quadrisection.

    A cell with at most (_MOMENT_CAP + 1) // 2 zeros is solved from its
    scaled moments (`_moment_solve`); a cell with more, or whose solve is
    not accepted, is quadrisected.  A cell below the subdivision floor
    100 * tol whose zeros are still unsolved, a zero outside the guarded
    box, or two zeros closer than the floor raise ClusterUnresolvedError
    instead of being reported.
    """
    box = _guarded_box(F, rect)
    total, sigma = _certified_winding(F, box)
    floor = 100.0 * tol

    found: list = []

    def process(b, count, sigma):
        if count == 0:
            return
        if count <= (_MOMENT_CAP + 1) // 2:
            zs = _moment_solve(F, b, count, sigma, tol, floor)
            if zs is not None:
                found.extend(zs)
                return
            # the pencil, Newton or a cluster's tiny box refused: tighten the cell
        if 2.0 * _box_scale(b)[1] < floor:  # the cell's diagonal
            raise ClusterUnresolvedError(
                f"cell {b} holds {count} unsolved zeros below the subdivision floor")
        children, results = _quadrisect(F, b, count)
        for c, (n, c_sigma) in zip(children, results):
            process(c, n, c_sigma)

    process(box, total, sigma)

    found.sort(key=lambda p: (p[0].real, p[0].imag))
    for i, (z, _) in enumerate(found):
        if not _in_box(z, box):
            raise ClusterUnresolvedError(f"zero {z} lies outside the guarded box {box}")
        for w, _ in found[i + 1:]:
            if abs(z - w) < floor:
                raise ClusterUnresolvedError(
                    f"zeros {z} and {w} lie closer than the subdivision floor {floor}")
    if sum(mult for _, mult in found) != total:
        raise ClusterUnresolvedError("multiplicity total does not match winding count")
    residuals = np.abs(F.eval_many(np.array([z for z, _ in found], dtype=complex)))
    records = tuple(ZeroRecord(z, mult, float(r))
                    for (z, mult), r in zip(found, residuals))
    return ZeroSet(records, rect, total)


# -- set comparison and structure checks ------------------------------------

@dataclass(frozen=True)
class CompareReport:
    min_distance: float
    common: tuple
    delta: float

    def to_json(self):
        return {
            "min_distance": self.min_distance if math.isfinite(self.min_distance) else None,
            "delta": self.delta,
            "common": [
                {"z1_re": a.real, "z1_im": a.imag,
                 "z2_re": b.real, "z2_im": b.imag, "distance": d}
                for a, b, d in self.common
            ],
        }


def compare_zero_sets(z1: ZeroSet, z2: ZeroSet, delta: float) -> CompareReport:
    """Pairs of zeros closer than delta; empty list certifies disjointness."""
    pairs = [(r1.z, r2.z, abs(r1.z - r2.z)) for r1 in z1.zeros for r2 in z2.zeros]
    return CompareReport(min((d for _, _, d in pairs), default=math.inf),
                         tuple(p for p in pairs if p[2] <= delta), delta)


@dataclass(frozen=True)
class StructureFlags:
    no_real_zeros: bool
    no_conjugate_pairs: bool


def structure_checks(zs: ZeroSet) -> StructureFlags:
    pts, tol = zs.points(), 1e-7  # tol: distance to the real axis or a conjugate
    no_real = all(abs(z.imag) > tol for z in pts)
    pairs = any(abs(w - z.conjugate()) <= tol
                for i, z in enumerate(pts) if abs(z.imag) > tol for w in pts[i + 1:])
    return StructureFlags(no_real, not pairs)

"""Argument-principle zero localization for the exponential transforms.

Zeros inside a rectangle are counted by the winding integral of F'/F over
the boundary, isolated by recursive quadrisection, and polished by Newton
iteration using the exact closed form of F'.  This is the numerical side
of the artifact: it never trusts the symbolic verdict and vice versa.

Contour evaluation is batched and fused.  A winding integral cuts each
edge into Gauss-Legendre panels, and one panel level of every box in a
batch (4 edges x all panels x 20 nodes) goes to `eval_many` as one array,
in chunks of at most _CHUNK_POINTS points; each call returns F and F'
together (`with_derivative=True`), sharing e^{iaz} and 1/z.  Panel sums
are reduced with array operations and added in the same order as a
per-panel loop would add them, so the integrals are the same floats.
`_certified_windings` certifies the four children of a quadrisection
together: at each doubling of the panels (4 to 256) it evaluates only the
boxes not yet certified, and each box keeps the one-box rule (two
successive integrals within `stab_tol` and within 0.1 of an integer).
The seven candidate cut lines of a split are scored in one call too.

Contour-seeded Newton.  The same nodes also give the first moment
(1/2 pi i) * integral of z F'/F, the sum of the zeros inside (Delves and
Lyness 1967), so each certified box comes with its centroid at no extra
evaluation.  A cell with one zero starts Newton there, or at its centre
when the centroid lies outside the cell; each Newton step is one fused
single-point `eval_many` call.

Acceptance.  A Newton result counts as the cell's zero only inside the
cell padded by _ACCEPT_PAD * tol; otherwise the cell is quadrisected, so a
start that runs to a neighbour's zero cannot claim it.  `locate_zeros`
raises ClusterUnresolvedError rather than report a zero outside the
guarded box or two zeros closer than the subdivision floor 100 * tol.

Split retry.  `_split_coord` ranks its candidate lines by the smallest
|F| sampled on them.  If the children of the best pair of cuts do not
certify, or their counts do not add up to the parent's, the next-ranked
pair is tried; only when every pair fails is the best pair's error
raised.  A zero on or near the first cut line therefore no longer ends
the search.  F'' is built only when a cluster below the subdivision floor
has to be resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transform import ClosedTransform


class BoundaryZeroError(RuntimeError):
    """Boundary could not be nudged away from a zero of F."""


class NonIntegerWindingError(RuntimeError):
    """Contour quadrature failed to certify an integer winding number."""


class ClusterUnresolvedError(RuntimeError):
    """Subdivision floor reached with more than one unresolved zero."""


@dataclass(frozen=True)
class SearchRect:
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    boundary_margin: float = 0.05

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("search rectangle has empty interior")

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
        return {
            "rect": vars(self.rect),
            "total_count": self.total_count,
            "zeros": [
                {"re": r.z.real, "im": r.z.imag,
                 "multiplicity": r.multiplicity, "residual": r.residual}
                for r in self.zeros
            ],
        }


# -- contour machinery ------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

#: Panels per edge tried in turn by `_certified_windings`.
_PANEL_LEVELS = (4, 8, 16, 32, 64, 128, 256)

#: Most contour points handed to one `eval_many` call.  A batch of four
#: boxes certifies at 8 panels in one call; a batch that runs to 256 panels
#: is evaluated piecewise, so its temporaries stay a few hundred kB.
_CHUNK_POINTS = 4096


def _box_corners(box):
    x0, x1, y0, y1 = box
    return [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]


def _boundary_samples(box, n_per_edge=128) -> np.ndarray:
    cs = _box_corners(box)
    t = np.linspace(0.0, 1.0, n_per_edge, endpoint=False)
    return np.concatenate([a + (b - a) * t for a, b in zip(cs, cs[1:] + cs[:1])])


def _winding_integrals(F, boxes, panels_per_edge) -> tuple:
    """(1/2 pi i) times the contour integrals of F'/F and z F'/F around each box.

    The first is the winding number, the number of zeros inside; the
    second is the sum of those zeros (Delves and Lyness 1967).  Every edge
    of every box is cut into `panels_per_edge` Gauss-Legendre panels.  A
    panel row holds the nodes of one panel; the rows of all boxes are
    evaluated together, F and F' in one `eval_many` call of at most
    _CHUNK_POINTS points.  Returns the two arrays, one entry per box.
    """
    corners = np.array([_box_corners(b) for b in boxes])
    start = corners.ravel()
    delta = np.roll(corners, -1, axis=1).ravel() - start
    edges = np.linspace(0.0, 1.0, panels_per_edge + 1)
    width = edges[1:] - edges[:-1]
    t = 0.5 * width[:, None] * _GL_NODES + 0.5 * (edges[1:] + edges[:-1])[:, None]
    edge, panel = np.divmod(np.arange(start.size * panels_per_edge), panels_per_edge)
    sums = np.empty((2, edge.size), dtype=complex)
    step = _CHUNK_POINTS // _GL_NODES.size
    for lo in range(0, edge.size, step):
        e, p = edge[lo:lo + step, None], panel[lo:lo + step]
        z = (start[e] + delta[e] * t[p]).ravel()
        f, fp = F.eval_many(z, with_derivative=True)
        vals = _GL_WEIGHTS * (fp / f).reshape(-1, _GL_NODES.size)
        sums[0, lo:lo + step] = np.sum(vals, axis=1)
        sums[1, lo:lo + step] = np.sum(vals * z.reshape(vals.shape), axis=1)
    terms = delta[edge] * 0.5 * width[panel] * sums
    # cumsum adds the panels in the order the scalar loop did
    totals = np.cumsum(terms.reshape(2, len(boxes), -1), axis=2)[:, :, -1] / (2j * math.pi)
    return totals[0], totals[1]


def _certified_windings(F, boxes, stab_tol=1e-3) -> list:
    """Winding numbers of several boxes, certified together, with centroids.

    Each box doubles its panels until two successive integrals agree to
    `stab_tol` and lie within 0.1 of an integer; a box that has not
    certified at the last level raises.  Each level evaluates only the
    boxes that are still open.  Returns one (count, centroid) pair per
    box: the centroid is the mean of the box's zeros, the first contour
    moment over the count at the certifying level, or None for count 0.
    """
    out = [None] * len(boxes)
    prev = [None] * len(boxes)
    open_ = list(range(len(boxes)))
    for panels in _PANEL_LEVELS:
        vals, moments = _winding_integrals(F, [boxes[i] for i in open_], panels)
        still = []
        for i, val, moment in zip(open_, vals, moments):
            val = complex(val)
            if prev[i] is not None and abs(val - prev[i]) < stab_tol:
                n = round(val.real)
                if abs(val - n) <= 0.1:
                    out[i] = (int(n), complex(moment) / n if n else None)
                    continue
            prev[i] = val
            still.append(i)
        open_ = still
        if not open_:
            return out
    i = open_[0]
    raise NonIntegerWindingError(
        f"winding integral did not certify an integer on {boxes[i]}: {prev[i]}")


def _certified_winding(F, box, stab_tol=1e-3):
    """(count, centroid) of one box (see `_certified_windings`)."""
    return _certified_windings(F, [box], stab_tol)[0]


def _guarded_box(F, rect: SearchRect, threshold_rel=1e-8, attempts=5):
    """Expand the box outward until no boundary sample is dangerously small."""
    box = (rect.re_min, rect.re_max, rect.im_min, rect.im_max)
    for k in range(attempts + 1):
        vals = np.abs(F.eval_many(_boundary_samples(box)))
        scale = float(np.max(vals))
        if float(np.min(vals)) > threshold_rel * (1.0 + scale):
            return box, scale
        m = rect.boundary_margin * (k + 1)
        box = (box[0] - m, box[1] + m, box[2] - m, box[3] + m)
    raise BoundaryZeroError(
        f"boundary |F| below threshold after {attempts} nudges")


def count_zeros(F: ClosedTransform, rect: SearchRect) -> int:
    """Number of zeros of F inside the rectangle, with multiplicity."""
    box, _ = _guarded_box(F, rect)
    return _certified_winding(F, box)[0]


# -- localization -----------------------------------------------------------

def _values(F, z: complex) -> tuple:
    """(F(z), F'(z)) at one point, from one `eval_many` call."""
    f, fp = F.eval_many(np.array([z]), with_derivative=True)
    return complex(f[0]), complex(fp[0])


def _newton(F, z0: complex, tol: float, box, max_iter=60):
    x0, x1, y0, y1 = box
    pad = max(x1 - x0, y1 - y0)
    z = z0
    for _ in range(max_iter):
        f, fp = _values(F, z)
        if fp == 0:
            return None
        dz = f / fp
        z = z - dz
        if not (x0 - pad <= z.real <= x1 + pad and y0 - pad <= z.imag <= y1 + pad):
            return None
        if abs(dz) <= tol:
            f, fp = _values(F, z)
            if fp != 0:
                z = z - f / fp
            return z
    return None


def _newton_multiple(F, Fpp, z0: complex, tol: float, box, max_iter=80):
    """Newton on u = F/F', quadratic also at multiple zeros."""
    x0, x1, y0, y1 = box
    pad = 2.0 * max(x1 - x0, y1 - y0) + 1.0
    z = z0
    for _ in range(max_iter):
        (f, fp), fpp = _values(F, z), Fpp(z)
        if fp == 0:
            return None
        u = f / fp
        up = 1.0 - f * fpp / (fp * fp)
        if up == 0:
            return None
        dz = u / up
        z = z - dz
        if not (x0 - pad <= z.real <= x1 + pad and y0 - pad <= z.imag <= y1 + pad):
            return None
        if abs(dz) <= tol:
            return z
    return None


#: Candidate cut lines, as fractions of the side, in order of preference.
_SPLIT_FRACS = (0.5, 0.44, 0.56, 0.38, 0.62, 0.32, 0.68)


def _split_coord(F, lo, hi, other_lo, other_hi, vertical) -> list:
    """Candidate split positions, best first.

    Each cut line is sampled at 33 points, all lines in one `eval_many`
    call.  Lines rank by the smallest |F| seen on them, largest first;
    ties keep the order of _SPLIT_FRACS and lines with a NaN sample come
    last.
    """
    cs = [lo + frac * (hi - lo) for frac in _SPLIT_FRACS]
    c = np.array(cs)[:, None]
    t = np.linspace(other_lo, other_hi, 33)
    z = (c + 1j * t) if vertical else (t + 1j * c)
    mins = np.min(np.abs(F.eval_many(z.ravel())).reshape(z.shape), axis=1)
    order = sorted(range(len(cs)), key=lambda k: (bool(np.isnan(mins[k])), -mins[k]))
    return [cs[k] for k in order]


#: A Newton result counts as its cell's zero only within this many
#: multiples of `tol` outside the cell.
_ACCEPT_PAD = 10.0


def _in_box(z, box, pad=0.0):
    x0, x1, y0, y1 = box
    return x0 - pad <= z.real <= x1 + pad and y0 - pad <= z.imag <= y1 + pad


def _quadrisect(F, box, count):
    """Four children of the box and their (count, centroid) pairs; the counts sum to count.

    The ranked cut lines of `_split_coord` are paired best with best,
    second with second, and so on; a pair whose children do not certify,
    or whose counts do not add up, gives way to the next.  If none works,
    the best pair's error is raised.
    """
    x0, x1, y0, y1 = box
    first_error = None
    for xs, ys in zip(_split_coord(F, x0, x1, y0, y1, vertical=True),
                      _split_coord(F, y0, y1, x0, x1, vertical=False)):
        children = [
            (x0, xs, y0, ys), (xs, x1, y0, ys),
            (x0, xs, ys, y1), (xs, x1, ys, y1),
        ]
        try:
            results = _certified_windings(F, children)
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
    """Isolate every zero in the rectangle by quadrisection, polish by Newton.

    A cell with one zero starts Newton from its certified centroid, or
    from its centre when the centroid lies outside the cell, and keeps the
    result only inside the cell padded by _ACCEPT_PAD * tol; otherwise the
    cell is quadrisected.  A zero outside the guarded box, or two zeros
    closer than the subdivision floor 100 * tol, raise
    ClusterUnresolvedError instead of being reported.
    """
    box, _ = _guarded_box(F, rect)
    total, centroid = _certified_winding(F, box)
    floor = 100.0 * tol

    found: list = []

    def resolve_cluster(b, count):
        x0, x1, y0, y1 = b
        z0 = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        z = _newton_multiple(F, F.derivative().derivative(), z0, tol, b)
        if z is not None:
            eps = max(20.0 * tol, 1e-9)
            tiny = (z.real - eps, z.real + eps, z.imag - eps, z.imag + eps)
            try:
                if _certified_winding(F, tiny)[0] == count:
                    found.append((z, count))
                    return
            except (NonIntegerWindingError, ZeroDivisionError):
                pass
        raise ClusterUnresolvedError(
            f"cell {b} holds {count} zeros below the subdivision floor")

    def process(b, count, centroid):
        x0, x1, y0, y1 = b
        diam = math.hypot(x1 - x0, y1 - y0)
        if count == 0:
            return
        if count == 1:
            if not _in_box(centroid, b):
                centroid = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
            z = _newton(F, centroid, tol, b)
            if z is not None and _in_box(z, b, pad=_ACCEPT_PAD * tol):
                found.append((z, 1))
                return
            # Newton escaped, failed or left the cell: tighten the cell first.
        if diam < floor:
            resolve_cluster(b, count)
            return
        children, results = _quadrisect(F, b, count)
        for c, (n, c_centroid) in zip(children, results):
            process(c, n, c_centroid)

    process(box, total, centroid)

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

    @property
    def has_common(self) -> bool:
        return bool(self.common)

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
    best = math.inf
    common = []
    for r1 in z1.zeros:
        for r2 in z2.zeros:
            d = abs(r1.z - r2.z)
            best = min(best, d)
            if d <= delta:
                common.append((r1.z, r2.z, d))
    return CompareReport(best, tuple(common), delta)


@dataclass(frozen=True)
class StructureFlags:
    no_real_zeros: bool
    no_conjugate_pairs: bool

    def to_json(self):
        return {"no_real_zeros": self.no_real_zeros,
                "no_conjugate_pairs": self.no_conjugate_pairs}


def structure_checks(zs: ZeroSet, axis_tol: float = 1e-7) -> StructureFlags:
    pts = zs.points()
    no_real = all(abs(z.imag) > axis_tol for z in pts)
    no_pairs = True
    for i, z in enumerate(pts):
        if abs(z.imag) <= axis_tol:
            continue
        for w in pts[i + 1:]:
            if abs(w - z.conjugate()) <= axis_tol:
                no_pairs = False
    return StructureFlags(no_real, no_pairs)


# -- Bessel reference oracle ------------------------------------------------

def bessel_reference(n: int, x_max: float) -> list:
    """Positive zeros of J_{n+1/2} up to x_max, via the spherical form.

    Spherical j_0 has zeros at k*pi; zeros of successive orders interlace,
    so each level is bracketed between consecutive zeros of the previous
    one and refined with Brent's method.
    """
    from scipy.optimize import brentq
    from scipy.special import spherical_jn

    if not (0 <= n <= 20):
        raise ValueError("order n must be in [0, 20]")
    if not (0 < x_max <= 200):
        raise ValueError("x_max must be in (0, 200]")
    upper = x_max + (n + 2) * math.pi
    zeros = [k * math.pi for k in range(1, int(upper / math.pi) + 2)]
    for order in range(1, n + 1):
        f = lambda x: spherical_jn(order, x)
        zeros = [
            brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
            for lo, hi in zip(zeros[:-1], zeros[1:])
        ]
    return [z for z in zeros if z <= x_max]

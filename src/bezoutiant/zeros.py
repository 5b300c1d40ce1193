"""Argument-principle zero localization for the exponential transforms.

Zeros inside a rectangle are counted by the winding integral of F'/F over
the boundary, found from the contour's higher moments, isolated by
recursive quadrisection where that fails, and polished by Newton
iteration with F' from F's own float coefficients (Horner's rule with
derivative in `eval_many`).  A cluster that no cell above the subdivision
floor separates is reported as one zero of its multiplicity, located at its
centroid.  This is the numerical side of the artifact: it never trusts the
symbolic verdict and vice versa.

Contour evaluation is batched and fused.  A winding integral cuts each
edge into Gauss-Legendre panels, and the panel levels asked for, for every
box in a batch (4 edges x all panels x 20 nodes), go to `eval_many` in
chunks of at most _CHUNK_POINTS points, whole chunks of several levels
sharing a call where they fit; each call returns F and F' together
(`with_derivative=True`), sharing e^{iaz} and 1/z.  The moments are
fused: each chunk fills one stacked array of the terms times u^0..u^7
(u the scaled node), sums it over the nodes and over each box's rows in
one reduction, and adds the result to the moments of the boxes the rows
belong to, so no per-panel array outlives its chunk.  A level's sums run
in the same order whichever levels share its calls, so its moments are
the same bits as a call for it alone, and agree with a per-panel loop to
rounding.
`_certified_windings` certifies the four children of a quadrisection
together: at each doubling of the panels (4 to 256) it evaluates only the
boxes not yet certified, and each box keeps the one-box rule (two
successive integrals within 1e-3 and within 0.1 of an integer).  No box
certifies at the first level, which has nothing to agree with, so the
first two levels (4 and 8 panels) run in one call: for up to four boxes,
3840 points in one `eval_many` call.  A box whose integral is not finite
(F is 0 at a contour node) fails at the level that sees it.
The seven candidate cut lines of a split are scored in one call too.

Moment solve.  The same nodes also give the scaled moments
sigma_k = (1/2 pi i) * integral of ((z - c)/r)^k F'/F dz, k <= _MOMENT_CAP,
with c the box centre and r its half-diagonal; they are the power sums of
the scaled zeros (z_j - c)/r, which lie in the unit disk (Delves and
Lyness 1967).  Each certified box comes with them at no extra evaluation.
A box with n zeros, 1 <= n <= _MOMENT_CAP, is solved in one step:
Newton's identities turn sigma_1..sigma_n into a monic polynomial,
`np.roots` gives its roots, and one vectorized Newton run on F polishes
all n of them, one fused `eval_many` call per step.  For n = 1 the start is the box's first-moment centroid.

Acceptance.  The solve is accepted only if all n Newton runs converge
inside the box padded by _ACCEPT_PAD * tol and the n zeros lie at least
the subdivision floor 100 * tol apart; otherwise the box is quadrisected
and its children are solved the same way, so a start that runs to a
neighbour's zero, or two starts that find one zero, cannot claim it.
`locate_zeros` raises ClusterUnresolvedError rather than report a zero
outside the guarded box or two zeros closer than the floor.

Split retry.  `_split_coord` ranks its candidate lines by the smallest
|F| sampled on them.  If the children of the best pair of cuts do not
certify, or their counts do not add up to the parent's, the next-ranked
pair is tried; only when every pair fails is the best pair's error
raised.  A zero on or near the first cut line therefore no longer ends
the search.

Clusters.  A cell below the subdivision floor whose zeros were not solved
is located at its centroid c + r sigma_1 / sigma_0, the mean of its zeros,
from the moments it already has (no F'' is built), and is reported as one
zero of that multiplicity if a tiny box around it certifies the same count.
"""

from __future__ import annotations

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
    """Subdivision floor reached with more than one unresolved zero."""


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
        if not all(math.isfinite((hi + reach) - (lo - reach))
                   for lo, hi in ((self.re_min, self.re_max), (self.im_min, self.im_max))):
            raise ValueError("search rectangle, moved out by every boundary nudge, "
                             "is wider or taller than float range")

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
#: boxes evaluates its first two levels (4 and 8 panels, 3840 points) in one
#: call; a batch that runs to 256 panels is evaluated piecewise, so its
#: temporaries stay a few hundred kB.
_CHUNK_POINTS = 4096


def _box_corners(box):
    x0, x1, y0, y1 = box
    return [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]


def _boundary_samples(box) -> np.ndarray:
    cs = _box_corners(box)
    t = np.linspace(0.0, 1.0, 128, endpoint=False)
    return np.concatenate([a + (b - a) * t for a, b in zip(cs, cs[1:] + cs[:1])])


#: Most zeros a box may hold to be solved from its contour moments
#: (`_moment_solve`); a box with more is quadrisected first.  Every moment
#: costs one more multiply and sum per contour node, on every box
#: evaluated, and the roots Newton's identities give lose accuracy as their
#: number grows, so a failed solve (a wasted Newton pass) gets likelier.
#: A rectangle 40 wide and 10 high held at most 6 zeros for the densities
#: of degree <= 8 at a = 1 tried, so it is solved in one step; wider ones
#: are split until their boxes hold this few.
_MOMENT_CAP = 7


def _box_scale(box):
    """Centre c and half-diagonal r of the box: (z - c) / r maps it into the unit disk."""
    x0, x1, y0, y1 = box
    return complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), 0.5 * math.hypot(x1 - x0, y1 - y0)


@functools.cache
def _panel_nodes(panels):
    """Gauss-Legendre nodes t on [0, 1] cut into `panels` equal panels, one
    row per panel, and the panel widths; built once per level, read-only."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    width = edges[1:] - edges[:-1]
    t = 0.5 * width[:, None] * _GL_NODES + 0.5 * (edges[1:] + edges[:-1])[:, None]
    t.flags.writeable = width.flags.writeable = False
    return t, width


def _panel_chunks(n_boxes, levels):
    """Each level's panel rows, in the chunks of at most _CHUNK_POINTS points
    that `_winding_integrals` sums.  A row is one panel of one edge; a chunk
    is (moment row j * n_boxes + box, edge, nodes t, panel width) per row,
    j indexing `levels`."""
    step = _CHUNK_POINTS // _GL_NODES.size
    for j, panels in enumerate(levels):
        t, width = _panel_nodes(panels)
        edge, panel = np.divmod(np.arange(4 * n_boxes * panels), panels)
        for lo in range(0, edge.size, step):
            e, p = edge[lo:lo + step], panel[lo:lo + step]
            yield j * n_boxes + e // 4, e, t[p], width[p]


def _winding_integrals(F, boxes, levels) -> np.ndarray:
    """Scaled contour moments of each box at each panel level, shaped
    (len(levels), len(boxes), _MOMENT_CAP + 1).

    Entry k is sigma_k = (1/2 pi i) * integral of ((z - c)/r)^k F'/F dz
    around the box, k = 0.._MOMENT_CAP, with c and r from `_box_scale`:
    sigma_0 is the winding number, the number of zeros inside, and sigma_k
    the sum of the k-th powers of their scaled positions (Delves and
    Lyness 1967).  At a level of n panels every edge of every box is cut
    into n Gauss-Legendre panels.  A panel row holds the nodes of one
    panel; each level's rows go in chunks of at most _CHUNK_POINTS points
    (`_panel_chunks`), and consecutive chunks that fit in _CHUNK_POINTS
    points together share one `eval_many` call (F and F').  Each chunk
    adds its rows' terms to the moments of the boxes they belong to, so a
    level's moments are bit for bit those of a call for that level alone.
    """
    corners = np.array([_box_corners(b) for b in boxes])
    scales = [_box_scale(b) for b in boxes]
    centre = np.array([c for c, _ in scales])
    radius = np.array([r for _, r in scales])
    start = corners.ravel()
    delta = corners[:, [1, 2, 3, 0]].ravel() - start
    moments = np.zeros((len(levels) * len(boxes), _MOMENT_CAP + 1), dtype=complex)
    # A chunk of fewer than `step` rows is the last of its level, so the chunks
    # that share a call belong to different levels and fill distinct moment rows.
    calls, step = [], _CHUNK_POINTS // _GL_NODES.size
    for chunk in _panel_chunks(len(boxes), levels):
        if calls and sum(c[0].size for c in calls[-1]) + chunk[0].size <= step:
            calls[-1].append(chunk)
        else:
            calls.append([chunk])
    for call in calls:
        row, e, t, width = (np.concatenate(parts) for parts in zip(*call))
        box = e // 4
        z = start[e, None] + delta[e, None] * t
        f, fp = F.eval_many(z.ravel(), with_derivative=True)
        # stack[k] holds the moment-k summands, the terms times ((z - c)/r)^k
        stack = np.empty((_MOMENT_CAP + 1,) + z.shape, dtype=complex)
        np.multiply((delta[e] * 0.5 * width)[:, None] * _GL_WEIGHTS,
                    (fp / f).reshape(z.shape), out=stack[0])
        u = (z - centre[box, None]) / radius[box, None]
        for k in range(1, _MOMENT_CAP + 1):
            np.multiply(stack[k - 1], u, out=stack[k])
        # the rows of one box at one level are contiguous: sum each run of them
        first = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
        moments[row[first]] += np.add.reduceat(np.sum(stack, axis=2), first, axis=1).T
    return moments.reshape(len(levels), len(boxes), -1) / (2j * math.pi)


def _certified_windings(F, boxes) -> list:
    """Winding numbers of several boxes, certified together, with moments.

    Each box doubles its panels until two successive integrals agree to
    1e-3 and lie within 0.1 of an integer; a box that has not
    certified at the last level raises, and so does a box whose integral
    is not finite (F vanishes at a contour node), at once.  Each level
    evaluates only the boxes that are still open; the first two levels
    share one `_winding_integrals` call.  Returns one
    (count, sigma) pair per box, sigma being the box's scaled moments (see
    `_winding_integrals`) at the certifying level.
    """
    out = [None] * len(boxes)
    prev = [None] * len(boxes)
    open_ = list(range(len(boxes)))
    # the first level has no predecessor to agree with, so it certifies no
    # box and leaves open_ as it was: it shares one evaluation with the second
    for levels in [_PANEL_LEVELS[:2]] + [(n,) for n in _PANEL_LEVELS[2:]]:
        with np.errstate(divide="ignore", invalid="ignore"):
            sigmas = _winding_integrals(F, [boxes[i] for i in open_], levels)
        for panels, level in zip(levels, sigmas):
            still = []
            for i, sigma in zip(open_, level):
                val = complex(sigma[0])
                if not np.isfinite(val):
                    raise NonIntegerWindingError(
                        f"non-finite winding integral on {boxes[i]} at {panels} panels: {val}")
                if prev[i] is not None and abs(val - prev[i]) < 1e-3:
                    n = round(val.real)
                    if abs(val - n) <= 0.1:
                        out[i] = (int(n), sigma)
                        continue
                prev[i] = val
                still.append(i)
            open_ = still
            if not open_:
                return out
    i = open_[0]
    raise NonIntegerWindingError(
        f"winding integral did not certify an integer on {boxes[i]}: {prev[i]}")


def _certified_winding(F, box):
    """(count, sigma) of one box (see `_certified_windings`)."""
    return _certified_windings(F, [box])[0]


#: Times `_guarded_box` moves the boundary outward before it gives up.
_NUDGES = 5


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
    raise BoundaryZeroError(
        f"boundary |F| below threshold after {_NUDGES} nudges")


def count_zeros(F: ClosedTransform, rect: SearchRect) -> int:
    """Number of zeros of F inside the rectangle, with multiplicity."""
    return _certified_winding(F, _guarded_box(F, rect))[0]


# -- localization -----------------------------------------------------------

def _power_sum_roots(sigma, n):
    """The n numbers whose k-th power sums are sigma[k], k = 1..n.

    Newton's identities give the monic polynomial with these roots,
    sigma_k + c_1 sigma_{k-1} + ... + c_{k-1} sigma_1 + k c_k = 0, and
    `np.roots` finds its roots (as eigenvalues of its companion matrix).
    """
    s = [complex(v) for v in sigma[:n + 1]]
    c = [1.0 + 0j]
    for k in range(1, n + 1):
        c.append(-(s[k] + sum(c[i] * s[k - i] for i in range(1, k))) / k)
    return np.roots(c)


def _newton(F, z0, tol: float, box):
    """Newton from every start in z0 at once: the converged points, or None.

    Per point, a step with F' = 0, or one that leaves the box padded by its
    larger side, fails, and so does a point still moving after 60 steps;
    a point stops once |dz| <= tol.  One point failing fails all of them.
    Each step is one fused `eval_many` call for the points still moving;
    when none is left, one more step polishes all of them.
    """
    x0, x1, y0, y1 = box
    pad = max(x1 - x0, y1 - y0)
    z = np.array(z0, dtype=complex)
    moving = np.arange(z.size)
    for _ in range(60):
        f, fp = F.eval_many(z[moving], with_derivative=True)
        if np.any(fp == 0):
            return None
        dz = f / fp
        z[moving] -= dz
        zm = z[moving]
        if not np.all((x0 - pad <= zm.real) & (zm.real <= x1 + pad)
                      & (y0 - pad <= zm.imag) & (zm.imag <= y1 + pad)):
            return None
        moving = moving[np.abs(dz) > tol]
        if moving.size == 0:
            f, fp = F.eval_many(z, with_derivative=True)
            return z - np.divide(f, fp, out=np.zeros_like(z), where=fp != 0)
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


def _moment_solve(F, box, count, sigma, tol, floor):
    """The box's `count` zeros from its scaled moments, or None.

    The roots of the power sums sigma_1..sigma_count start one vectorized
    Newton run.  The result is accepted only if every start converges
    inside the box padded by _ACCEPT_PAD * tol and the zeros lie at least
    `floor` apart.
    """
    c, r = _box_scale(box)
    z = _newton(F, c + r * _power_sum_roots(sigma, count), tol, box)
    if z is None or not all(_in_box(w, box, pad=_ACCEPT_PAD * tol) for w in z):
        return None
    if any(abs(w - v) < floor for i, w in enumerate(z) for v in z[:i]):
        return None
    return [complex(w) for w in z]


def _quadrisect(F, box, count):
    """Four children of the box and their (count, sigma) pairs; the counts sum to count.

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
    """Every zero in the rectangle, from contour moments or quadrisection.

    A cell with at most _MOMENT_CAP zeros is solved from its scaled
    moments (`_moment_solve`); a cell with more, or whose solve is not
    accepted, is quadrisected.  A cell below the subdivision floor
    100 * tol whose zeros are still unsolved is reported at its centroid,
    as one zero of their multiplicity.  A zero outside the guarded box, or
    two zeros closer than the floor, raise ClusterUnresolvedError instead
    of being reported.
    """
    box = _guarded_box(F, rect)
    total, sigma = _certified_winding(F, box)
    floor = 100.0 * tol

    found: list = []

    def resolve_cluster(b, count, sigma):
        # the first moment is the mean of the cell's zeros: the cluster's position
        c, r = _box_scale(b)
        z = complex(c + r * sigma[1] / sigma[0])
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

    def process(b, count, sigma):
        x0, x1, y0, y1 = b
        if count == 0:
            return
        if count <= _MOMENT_CAP:
            zs = _moment_solve(F, b, count, sigma, tol, floor)
            if zs is not None:
                found.extend((z, 1) for z in zs)
                return
            # Newton escaped, failed, left the cell or found a zero twice:
            # tighten the cell first.
        if math.hypot(x1 - x0, y1 - y0) < floor:
            resolve_cluster(b, count, sigma)
            return
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


def structure_checks(zs: ZeroSet) -> StructureFlags:
    pts, tol = zs.points(), 1e-7  # tol: distance to the real axis or a conjugate
    no_real = all(abs(z.imag) > tol for z in pts)
    no_pairs = True
    for i, z in enumerate(pts):
        if abs(z.imag) <= tol:
            continue
        for w in pts[i + 1:]:
            if abs(w - z.conjugate()) <= tol:
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

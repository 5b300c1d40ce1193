import dataclasses
import json
import math
import random
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from sympy.polys.domains import QQ_I

from bezoutiant import cli, zeros
from bezoutiant.cli import ProblemSpec
from bezoutiant.exact import Poly
from bezoutiant.transform import ClosedTransform, closed_form, reflected_transform
from bezoutiant.zeros import (
    _GL_NODES,
    _GL_WEIGHTS,
    _SPLIT_FRACS,
    BoundaryZeroError,
    ClusterUnresolvedError,
    NonIntegerWindingError,
    SearchRect,
    _boundary_samples,
    _box_corners,
    _box_scale,
    _certified_winding,
    _guarded_box,
    _split_coord,
    _winding_integrals,
    compare_zero_sets,
    count_zeros,
    locate_zeros,
    structure_checks,
)
from conftest import bessel_reference, fractions_of, transform_of_i_t, triple_of

FIXTURES = Path(__file__).parent / "fixtures"

ONE = Poly.of(1)
TWO_T = Poly.of(0, 2)


def test_count_basic():
    Ft = closed_form(ONE, 1)
    assert count_zeros(Ft, SearchRect(-7, 7, -1, 1)) == 2
    assert count_zeros(Ft, SearchRect(-1, 1, -1, 1)) == 0


def test_count_bessel_window():
    # zeros of the transform of t(2-t) on [0,2] are the tan z = z roots
    # 4.4934, 7.7253, 10.9041, ...; exactly two lie in (0.1, 10)
    G = closed_form(Poly.of(0, 2, -1), 2)
    assert count_zeros(G, SearchRect(0.1, 10, -1, 1)) == 2
    assert count_zeros(G, SearchRect(0.1, 11, -1, 1)) == 3


def test_locate_constant_density():
    Ft = closed_form(ONE, 1)
    zs = locate_zeros(Ft, SearchRect(-7, 7, -1, 1), tol=1e-12)
    assert zs.total_count == 2
    got = sorted(z.real for z in zs.points())
    assert abs(got[0] + 2 * math.pi) < 1e-10
    assert abs(got[1] - 2 * math.pi) < 1e-10
    for r in zs.zeros:
        assert r.residual <= 1e-12


def test_locate_near_origin_for_large_a():
    # a = 40 puts the zeros 2 pi k / 40 inside |z| < 0.5, where the Taylor
    # series is summed only out to |z| = 10/a
    zs = locate_zeros(closed_form(ONE, 40), SearchRect(-0.46, 0.45, -0.3, 0.3))
    assert zs.total_count == 4
    want = [2 * math.pi * k / 40 for k in (-2, -1, 1, 2)]
    assert all(abs(z - w) <= 1e-12 for z, w in zip(zs.points(), want))


def test_locate_linear_density_all_complex():
    F2 = closed_form(TWO_T, 1)
    zs = locate_zeros(F2, SearchRect(-20, 20, -8, 8))
    assert zs.total_count == len(zs.zeros) > 0
    assert min(abs(z.imag) for z in zs.points()) > 1e-3
    flags = structure_checks(zs)
    assert flags.no_real_zeros and flags.no_conjugate_pairs


def test_locate_sorted_and_conserved():
    Ft = closed_form(ONE, 1)
    zs = locate_zeros(Ft, SearchRect(-26, 26, -2, 2))
    pts = zs.points()
    assert pts == sorted(pts, key=lambda z: (z.real, z.imag))
    assert sum(r.multiplicity for r in zs.zeros) == zs.total_count == 8


def test_coincidence_pair_zero_sets_match():
    # psi1 = psi2 = 1: F21 differs from F1 by the factor e^{iaz},
    # so the zero sets agree exactly
    rect = SearchRect(-15, 15, -2, 2)
    z1 = locate_zeros(closed_form(ONE, 1), rect)
    z2 = locate_zeros(reflected_transform(ONE, 1), rect)
    rep = compare_zero_sets(z1, z2, delta=1e-8)
    assert len(z1.zeros) == len(z2.zeros)
    assert len(rep.common) >= len(z1.zeros)


def test_compare_disjoint_sets():
    rect = SearchRect(-40, 40, -5, 5)
    z1 = locate_zeros(closed_form(ONE, 1), rect)
    z2 = locate_zeros(reflected_transform(TWO_T, 1), rect)
    rep = compare_zero_sets(z1, z2, delta=1e-3)
    assert not rep.common
    assert rep.min_distance > 1e-1


def test_structure_checks_symmetric_density():
    zs = locate_zeros(closed_form(ONE, 1), SearchRect(-7, 7, -1, 1))
    flags = structure_checks(zs)
    assert not flags.no_real_zeros


def test_structure_checks_vacuous():
    zs = locate_zeros(closed_form(ONE, 1), SearchRect(-1, 1, -1, 1))
    assert not zs.zeros
    flags = structure_checks(zs)
    assert flags.no_real_zeros and flags.no_conjugate_pairs


def test_conjugation_law():
    # zeros(F21) = conj(zeros(F2)) on mirrored rectangles
    for psi2 in (TWO_T, Poly.of(0, 0, 1), Poly.of(1, (0, 1))):
        rect = SearchRect(-20, 20, -4, 4)
        z2 = locate_zeros(closed_form(psi2, 1), rect)
        z21 = locate_zeros(reflected_transform(psi2, 1), rect.mirrored())
        conj_pts = sorted((z.conjugate() for z in z2.points()),
                          key=lambda z: (z.real, z.imag))
        pts21 = z21.points()
        assert len(conj_pts) == len(pts21)
        for a, b in zip(conj_pts, pts21):
            assert abs(a - b) < 1e-8


def test_bessel_reference_levels():
    z0 = bessel_reference(0, 16)
    assert all(abs(z - (k + 1) * math.pi) < 1e-10 for k, z in enumerate(z0))
    z1 = bessel_reference(1, 15)
    assert abs(z1[0] - 4.493409457909064) < 1e-9
    z2 = bessel_reference(2, 15)
    assert abs(z2[0] - 5.763459196894550) < 1e-8
    with pytest.raises(ValueError):
        bessel_reference(21, 10)
    with pytest.raises(ValueError):
        bessel_reference(1, 300)


def test_zero_set_serialization():
    zs = locate_zeros(closed_form(ONE, 1), SearchRect(-7, 7, -1, 1))
    d = zs.to_json()
    assert d["total_count"] == 2 and len(d["zeros"]) == 2


def test_residual_invariant():
    rect = SearchRect(-20, 20, -8, 8)
    Ft = closed_form(TWO_T, 1)
    zs = locate_zeros(Ft, rect)
    sup = float(np.max(np.abs(Ft.eval_many(_boundary_samples(
        (rect.re_min, rect.re_max, rect.im_min, rect.im_max))))))
    for r in zs.zeros:
        assert r.residual <= 1e-9 * max(1.0, sup)


# -- the boundary guard ---------------------------------------------------------

#: The bottom edge of [-4 pi, 4 pi] x [0, 1] runs through the zeros -4 pi,
#: -2 pi, 2 pi and 4 pi of the unit-mass transform on [0, 1].
_ON_ZEROS = SearchRect(-4 * math.pi, 4 * math.pi, 0.0, 1.0)


def test_guard_nudges_boundary_off_zeros():
    Ft = closed_form(ONE, 1)
    box = (_ON_ZEROS.re_min, _ON_ZEROS.re_max, _ON_ZEROS.im_min, _ON_ZEROS.im_max)
    samples = _boundary_samples(box)
    assert samples[32] == -2 * math.pi
    assert abs(Ft.eval_many(samples[32:33])[0]) < 1e-15
    m = _ON_ZEROS.boundary_margin  # one nudge is enough
    assert _guarded_box(Ft, _ON_ZEROS) == (box[0] - m, box[1] + m, box[2] - m, box[3] + m)
    assert count_zeros(Ft, _ON_ZEROS) == 4
    got = sorted(locate_zeros(Ft, _ON_ZEROS).points(), key=lambda z: z.real)
    assert len(got) == 4
    for z, k in zip(got, (-2, -1, 1, 2)):
        assert abs(z - 2 * math.pi * k) < 1e-12


def test_guard_without_margin_refuses():
    pinned = dataclasses.replace(_ON_ZEROS, boundary_margin=0.0)
    with pytest.raises(BoundaryZeroError, match="after 5 nudges"):
        count_zeros(closed_form(ONE, 1), pinned)


# -- contour evaluation --------------------------------------------------------

def _panel_loop_winding(F, Fp, box, panels_per_edge):
    """The scalar oracle: two eval_many calls per panel, one panel at a time.

    Returns the scaled moments sigma_k, k = 0.._MOMENT_CAP: the integrals
    of ((z - c)/r)^k F'/F over 2 pi i, c the box centre, r its half-diagonal.
    """
    x0, x1, y0, y1 = box
    c = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    r = 0.5 * math.hypot(x1 - x0, y1 - y0)
    cs = _box_corners(box)
    sigma = [0j] * (zeros._MOMENT_CAP + 1)
    for a, b in zip(cs, cs[1:] + cs[:1]):
        edges = np.linspace(0.0, 1.0, panels_per_edge + 1)
        for t0, t1 in zip(edges[:-1], edges[1:]):
            t = 0.5 * (t1 - t0) * _GL_NODES + 0.5 * (t1 + t0)
            z = a + (b - a) * t
            vals = Fp.eval_many(z) / F.eval_many(z)
            for k in range(len(sigma)):
                sigma[k] += (b - a) * 0.5 * (t1 - t0) * np.sum(
                    _GL_WEIGHTS * vals * ((z - c) / r) ** k)
    return np.array(sigma) / (2j * math.pi)


def test_winding_integrals_match_panel_loop():
    F = reflected_transform(Poly.of(1, (0, 2), -3, (1, 1)), 2)
    Fp = transform_of_i_t(F)
    for box in [(-10.0, 3.0, -5.0, 2.0), (-3.1, 7.7, -1.0, 4.0), (0.1, 0.2, 0.3, 0.5),
                (-20.5, 20.0, -5.5, 5.5)]:
        for panels in (4, 8, 64, 256):
            [sigma] = _winding_integrals(F, box, (panels,))
            assert sigma.shape == (zeros._MOMENT_CAP + 1,)
            want = _panel_loop_winding(F, Fp, box, panels)
            assert np.all(np.abs(sigma - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        # several levels in one call: each level is its own call's moments, bit for bit
        for levels in ((4, 8), (64, 128)):
            got = _winding_integrals(F, box, levels)
            assert got.shape == (len(levels), zeros._MOMENT_CAP + 1)
            for panels, sigma in zip(levels, got):
                assert np.array_equal(sigma, _winding_integrals(F, box, (panels,))[0])


class _Counted:
    """F with the size of each `eval_many` call recorded."""

    def __init__(self, F):
        self.F, self.calls = F, []

    def eval_many(self, z, with_derivative=False):
        self.calls.append(z.size)
        return self.F.eval_many(z, with_derivative)


def test_certified_winding_evaluates_each_level_once():
    # levels 4 and 8 share one eval_many call; every later level is one more
    Ft = closed_form(ONE, 1)
    small = _Counted(Ft)
    assert _certified_winding(small, (5, 8, -1, 1))[0] == 1
    assert small.calls == [4 * 20 * (4 + 8)]
    wide = _Counted(Ft)
    assert _certified_winding(wide, (-40, 40, -1, 1))[0] == 12
    later = zeros._PANEL_LEVELS[2:len(wide.calls) + 1]
    assert len(wide.calls) >= 2 and wide.calls == [4 * 20 * (4 + 8)] + [4 * 20 * n for n in later]


def test_winding_integrals_memory_at_256_panels():
    # the moment stack of 256 panels x 4 edges x 20 nodes x 14 moments is 4.6 MB
    F = reflected_transform(Poly.of(1, (0, 2), -3, (1, 1)), 2)
    box = (-20.5, 20.0, -5.5, 5.5)
    _winding_integrals(F, box, (256,))  # the node table and F's float data, built once
    tracemalloc.start()
    try:
        _winding_integrals(F, box, (256,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_split_coord_ranks_every_candidate():
    Ft = closed_form(ONE, 1)
    # all seven vertical cuts of [-13, 13] x [-1, 1], largest min |F| first
    ranked = _split_coord(Ft, -13.0, 13.0, -1.0, 1.0, vertical=True)
    assert sorted(ranked) == sorted(-13.0 + f * 26.0 for f in _SPLIT_FRACS)
    t = np.linspace(-1.0, 1.0, 33)
    mins = [float(np.min(np.abs(Ft.eval_many(c + 1j * t)))) for c in ranked]
    assert mins == sorted(mins, reverse=True)


def test_split_retry_degree_15_rational_pair():
    # A degree-15/14 real pair on [0, 1].  For both transforms the
    # best-ranked first cut is x = 0, and the children it makes do not
    # certify (for F_1 the integral is NaN), so the locator must fall back
    # to the next-ranked pair of cuts.
    psi1 = Poly.of(*map(Fraction, ["1/2", "-2", "2/3", "-2/3", "5", "0", "3/2", "1/6",
                             "5", "-3", "-1/3", "1", "-4/5", "-2/3", "-5/6", "-3/4"]))
    psi2 = Poly.of(*map(Fraction, ["-5/6", "-5/2", "-1/2", "2", "-3/5", "6", "2/5", "2/5",
                             "0", "-1/3", "-4", "-1", "-1", "-2", "-3/2"]))
    rect = SearchRect(-40, 40, -5, 5)
    for F in (closed_form(psi1, 1), reflected_transform(psi2, 1)):
        with np.errstate(divide="ignore", invalid="ignore"):  # the NaN first cut
            zs = locate_zeros(F, rect)
        assert zs.total_count == len(zs.zeros) == 12
        for r in zs.zeros:
            assert r.multiplicity == 1 and r.residual <= 1e-9
            assert -40 <= r.z.real <= 40 and -5 <= r.z.imag <= 5


# -- contour-seeded Newton and the acceptance rule ---------------------------

def test_certified_centroid_is_the_zero():
    # (e^{iaz} - 1)/(iaz) vanishes at z = 2 pi k / a
    def centroid(Ft, box):
        n, sigma = _certified_winding(Ft, box)
        c, r = _box_scale(box)
        return n, c + r * sigma[1] / sigma[0]

    for a in (Fraction(1), Fraction(7, 3)):
        Ft = closed_form(ONE, a)
        step = 2 * math.pi / float(a)
        for k in (1, 2, -3):
            n, z = centroid(Ft, (k * step - 0.4 * step, k * step + 0.3 * step, -1.0, 1.0))
            assert n == 1 and abs(z - k * step) < 1e-6
        # two zeros: the centroid is their mean
        n, z = centroid(Ft, (0.5 * step, 2.5 * step, -1.0, 1.0))
        assert n == 2 and abs(z - 1.5 * step) < 1e-6
        assert _certified_winding(Ft, (0.1 * step, 0.9 * step, -1.0, 1.0))[0] == 0


def _fixture_transforms(name):
    spec = ProblemSpec.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
    return spec, closed_form(spec.psi1, spec.a), reflected_transform(spec.psi2, spec.a)


def _loose_acceptance(monkeypatch):
    """The acceptance this locator once had: only one-zero cells solved,
    Newton from each cell's centre (sigma_1 = 0), its result kept up to
    several units outside the cell."""
    certified = zeros._certified_winding

    def centre(F, box):
        n, sigma = certified(F, box)
        return n, np.r_[sigma[0], np.zeros(sigma.size - 1)]

    monkeypatch.setattr(zeros, "_MOMENT_CAP", 1)
    monkeypatch.setattr(zeros, "_certified_winding", centre)
    monkeypatch.setattr(zeros, "_ACCEPT_PAD", 4e10)


def test_no_zero_reported_twice(monkeypatch):
    # F_{2,1} once reported 9.2945-1.3289i twice and missed 1.2904-2.9333i:
    # Newton from a neighbouring cell's centre landed on its zero
    spec, _, F21 = _fixture_transforms("gaussian_quartic_cubic")
    zs = locate_zeros(F21, spec.rect, spec.tol)
    pts = zs.points()
    assert zs.total_count == len(pts) == 5
    assert min(abs(z - w) for i, z in enumerate(pts) for w in pts[i + 1:]) > 1.0
    assert min(abs(z - complex(1.2904162229576, -2.9333012882320)) for z in pts) < 1e-9
    _loose_acceptance(monkeypatch)
    with pytest.raises(ClusterUnresolvedError, match="closer than"):
        locate_zeros(F21, spec.rect, spec.tol)


def test_no_zero_reported_outside_rectangle(monkeypatch):
    # F_{2,1} of cubic_vs_quadratic once reported +-21.398-5.521i, outside
    # [-40,40]x[-5,5], in place of the zeros +-14.959-4.857i inside it
    spec, _, F21 = _fixture_transforms("cubic_vs_quadratic")
    zs = locate_zeros(F21, spec.rect, spec.tol)
    pts = sorted(zs.points(), key=lambda z: z.real)
    assert zs.total_count == len(pts) == 4
    for z, want in zip(pts, (-14.958911406214, -8.366815506674, 8.366815506674,
                             14.958911406214)):
        assert abs(z.real - want) < 1e-9 and -5 <= z.imag <= 5
    _loose_acceptance(monkeypatch)
    with pytest.raises(ClusterUnresolvedError, match="outside the guarded box"):
        locate_zeros(F21, spec.rect, spec.tol)


def _mp_transform(F):
    """int_0^a e^{izt} g(t) dt in mpmath, from g alone: the Taylor series
    for |z| < 1, else I_k = int_0^a t^k e^{izt} dt by integrating by parts."""
    def mpq(x):
        return mpmath.mpf(x.numerator) / x.denominator
    g = [mpmath.mpc(mpq(x), mpq(y)) for x, y in fractions_of(F.density.triple)]
    a = mpq(F.a)

    def f(z):
        if abs(z) < 1:  # mu_n = sum_k g_k a^(n+k+1) / (n+k+1)
            mu = [sum(c * a ** (n + k + 1) / (n + k + 1) for k, c in enumerate(g))
                  for n in range(80)]
            return sum((1j * z) ** n / mpmath.factorial(n) * m for n, m in enumerate(mu))
        e = mpmath.exp(1j * a * z)
        moment = (e - 1) / (1j * z)
        total = g[0] * moment
        for k in range(1, len(g)):
            moment = (a ** k * e - k * moment) / (1j * z)
            total += g[k] * moment
        return total
    return f


CORPUS = sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != "bad_rational")


@pytest.mark.parametrize("name", CORPUS)
def test_located_zeros_match_mpmath(name):
    spec, F1, F21 = _fixture_transforms(name)
    for F in (F1, F21):
        zs = locate_zeros(F, spec.rect, spec.tol)
        box = _guarded_box(F, spec.rect)
        for r in zs.zeros:
            # a zero of multiplicity m is a simple zero of F^(m-1) at which
            # F, ..., F^(m-2) vanish too
            ds = [F]
            while len(ds) <= r.multiplicity:
                ds.append(transform_of_i_t(ds[-1]))
            mp = [_mp_transform(d) for d in ds]
            with mpmath.workdps(50):
                root = mpmath.findroot(mp[-2], mpmath.mpc(r.z), df=mp[-1], solver="newton")
                assert all(abs(f(root)) < 1e-30 for f in mp[:-2])
            assert abs(complex(root) - r.z) <= 1e-12 * max(1.0, abs(r.z))
            assert zeros._in_box(r.z, box)
        simple = [r.z for r in zs.zeros if r.multiplicity == 1]
        for i, z in enumerate(simple):
            assert all(abs(z - w) > spec.delta for w in simple[i + 1:])
        assert sum(r.multiplicity for r in zs.zeros) == zs.total_count


# -- the moment solve ---------------------------------------------------------

def test_pencil_rebuilds_roots_with_multiplicities():
    # the Hankel pencil on the exact power sums of 4 distinct roots of
    # multiplicities 1, 2, 3 and 1: 7 zeros, sigma_0..sigma_13
    q = Fraction
    roots = [(QQ_I(q(1, 2), q(1, 3)), 1), (QQ_I(q(-2, 3), q(1, 5)), 2),
             (QQ_I(q(1, 7), q(-3, 4)), 3), (QQ_I(q(-4, 5), 0), 1)]
    n = sum(m for _, m in roots)
    sigma, powers = [], [QQ_I(m) for _, m in roots]
    for _ in range(2 * n):
        sigma.append(sum(powers[1:], powers[0]))
        powers = [p * r for p, (r, _) in zip(powers, roots)]

    def to_complex(v):
        return complex(float(v.x), float(v.y))
    got, mult = zeros._pencil(np.array([to_complex(s) for s in sigma]), n)
    assert sorted(mult) == [1, 1, 2, 3]
    for r, m in roots:
        i = int(np.argmin(np.abs(got - to_complex(r))))
        assert abs(got[i] - to_complex(r)) <= 1e-12 and mult[i] == m


def test_pencil_refuses_weights_that_are_not_multiplicities():
    # a box of 3 zeros with 2 distinct: weights 2.6 at 0.5 and 0.4 at -0.25i
    # are refused (0.4 rounds to 0); 1.9 and 1.1 are a double and a simple zero
    def sums(w1, w2):
        return np.array([w1 * 0.5 ** k + w2 * (-0.25j) ** k for k in range(2 * 3)])
    assert zeros._pencil(sums(2.6, 0.4), 3) is None
    assert sorted(zeros._pencil(sums(1.9, 1.1), 3)[1]) == [1, 2]


def _forced_quadrisection(monkeypatch):
    """Moment solve for one-zero cells only; every other cell is quadrisected."""
    monkeypatch.setattr(zeros, "_MOMENT_CAP", 1)


def _assert_same_zero_sets(F, got, want):
    """Same count and multiplicities; each zero of either set lies within
    max(1e-12 max(1, |z|), 2 |F(z) / F'(z)|) of one of the other."""
    assert got.total_count == want.total_count
    assert sorted(r.multiplicity for r in got.zeros) == sorted(r.multiplicity for r in want.zeros)
    for this, other in ((got, want), (want, got)):
        pts = np.array(this.points(), dtype=complex)
        f, fp = F.eval_many(pts, with_derivative=True)
        for z, step in zip(pts, np.abs(f / fp)):
            near = min(abs(w - z) for w in other.points())
            assert near <= max(1e-12 * max(1.0, abs(z)), 2 * step)


def _outcome(F, rect):
    try:
        return locate_zeros(F, rect)
    except (NonIntegerWindingError, ClusterUnresolvedError) as exc:
        return type(exc)


def test_moment_solve_matches_forced_quadrisection(monkeypatch):
    # Gaussian densities of degree 1-8 with integer parts up to 6 on the
    # rectangles of the zeros-wide benchmark workload
    rng = random.Random(20091)
    cases = []
    for degree in range(1, 9):
        for half_width in (10, 20, 10, 20):
            coeffs = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(degree)]
            coeffs.append((rng.choice([-6, -3, 1, 2, 5]), rng.randint(-6, 6)))
            cases.append((closed_form(Poly.of(*coeffs), 1),
                          SearchRect(-half_width, half_width, -5, 5)))
    solved = [_outcome(F, rect) for F, rect in cases]
    _forced_quadrisection(monkeypatch)
    for (F, rect), got in zip(cases, solved):
        want = _outcome(F, rect)
        if isinstance(want, type):
            assert got is want
        else:
            _assert_same_zero_sets(F, got, want)
    assert sum(not isinstance(s, type) for s in solved) >= 30


def test_moment_solve_falls_back_to_quadrisection(monkeypatch):
    # all starts on one point: Newton finds one zero n times, they merge
    # into one zero of multiplicity n whose tiny box certifies winding 1, so
    # the solve is refused and the cell is quadrisected as if it had no
    # moment solve
    spec, F1, F21 = _fixture_transforms("gaussian_quartic_cubic")
    pencil, refused = zeros._pencil, []

    def one_point(sigma, n):
        refused.append(n > 1)
        return np.full(n, pencil(sigma, n)[0][0]), np.ones(n, dtype=int)

    with monkeypatch.context() as m:
        m.setattr(zeros, "_pencil", one_point)
        got = [locate_zeros(F, spec.rect, spec.tol) for F in (F1, F21)]
    assert any(refused)
    _forced_quadrisection(monkeypatch)
    want = [locate_zeros(F, spec.rect, spec.tol) for F in (F1, F21)]
    assert got == want


def test_moment_solve_rejects_a_zero_outside_its_box(monkeypatch):
    # the box holds 2 pi; a start at the neighbouring zero 4 pi, outside the
    # box but inside Newton's padded box, converges there and is refused
    Ft = closed_form(ONE, 1)
    box = (4.0, 8.5, -1.0, 1.0)
    n, sigma = _certified_winding(Ft, box)
    assert n == 1
    [(z, m)] = zeros._moment_solve(Ft, box, n, sigma, 1e-10, 1e-8)
    assert abs(z - 2 * math.pi) < 1e-12 and m == 1
    c, r = _box_scale(box)
    monkeypatch.setattr(zeros, "_pencil",
                        lambda sigma, n: (np.array([(4 * math.pi - c) / r]), np.array([1])))
    assert zeros._moment_solve(Ft, box, n, sigma, 1e-10, 1e-8) is None


# -- multiple zeros -------------------------------------------------------------

def _multiple_zero_density(z0, m):
    """(D + i z0)^m [t^m (1-t)^m], z0 an (re, im) pair.  Its transform on
    [0, 1] is, by parts, (i (z0 - z))^m times that of t^m (1-t)^m: a zero
    of multiplicity m at z0."""
    h = Poly.of(1)
    for _ in range(m):
        h = h * Poly.of(0, 1) * Poly.of(1, -1)
    for _ in range(m):
        h = h.derivative() + h * triple_of(-z0[1], z0[0])
    return h


@pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-10])
@pytest.mark.parametrize("m, err", [(2, 1e-10), (3, 1e-6)])
def test_multiple_zero_located_at_cluster_centroid(m, err, tol):
    # the pencil sees the m zeros at z0 as one eigenvalue of multiplicity m,
    # the cluster's centroid, and a tiny box around it certifies winding m;
    # at the default tol every one is within 1e-10 of z0
    rect = SearchRect(-10, 10, -3, 3)
    for z0 in ((3, 0), (Fraction(5, 2), Fraction(1, 2)), (7, -1)):
        F = ClosedTransform.from_density(_multiple_zero_density(z0, m), 1)
        zs = locate_zeros(F, rect, tol)
        assert zs.total_count == m
        assert [r.multiplicity for r in zs.zeros] == [m]
        assert abs(zs.zeros[0].z - complex(*map(float, z0))) < (1e-10 if tol == 1e-10 else err)


@pytest.mark.parametrize("m", [2, 3])
def test_newton_steps_to_a_multiple_zero_by_its_multiplicity(m):
    # z - m F/F' converges quadratically from 0.014 away, then stops where
    # F is rounding noise (a step that does not lower |F| is undone)
    F = _Counted(ClosedTransform.from_density(_multiple_zero_density((3, 0), m), 1))
    z = zeros._newton(F, [3.01 - 0.01j], np.array([m]), 1e-10, (2, 4, -1, 1))
    assert abs(z[0] - 3) < 1e-4 and len(F.calls) <= 6


def test_close_simple_zeros_stay_two_zeros():
    # zeros at 3 and 3 + 1e-5: the pencil of the 20 x 6 box keeps them
    # apart (rank 2), so they are not reported as one double zero; F' is
    # small there, so each is fixed only to about 1e-9
    h = Poly.of(0, 1) * Poly.of(1, -1) * Poly.of(0, 1) * Poly.of(1, -1)
    for z0 in (3, 3 + Fraction(1, 10 ** 5)):
        h = h.derivative() + h * triple_of(0, z0)  # i z0
    zs = locate_zeros(ClosedTransform.from_density(h, 1), SearchRect(-10, 10, -3, 3))
    assert [r.multiplicity for r in zs.zeros] == [1, 1]
    for r, want in zip(zs.zeros, (3, 3 + 1e-5)):
        assert abs(r.z - want) < 1e-8


def test_non_finite_winding_fails_at_once(monkeypatch):
    calls = []

    def nan_at_first_level(F, box, levels):
        calls.append(levels)
        sigma = np.zeros((len(levels), zeros._MOMENT_CAP + 1), dtype=complex)
        sigma[0, 0] = complex("nan")
        return sigma

    monkeypatch.setattr(zeros, "_winding_integrals", nan_at_first_level)
    with pytest.raises(NonIntegerWindingError,
                       match=r"non-finite .* on \(0, 1, 0, 1\) at 4 panels"):
        _certified_winding(None, (0, 1, 0, 1))
    assert calls == [(4, 8)]


class _VanishingOnContour:
    """F = 0 at every contour node: F'/F divides by zero there."""

    def eval_many(self, z, with_derivative=False):
        return np.zeros_like(z), np.ones_like(z)


def test_non_finite_winding_is_quiet():
    # numpy's divide and invalid warnings become errors here: none may reach stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonIntegerWindingError, match="non-finite"):
            _certified_winding(_VanishingOnContour(), (0, 1, 0, 1))


# -- the locator's refusals --------------------------------------------------

def _child_windings(monkeypatch, answer):
    """`_certified_winding` with every call after the first (the guarded
    box's), here those of `_quadrisect`, answered by `answer()`; returns
    the boxes of all calls."""
    certified, calls = zeros._certified_winding, []

    def patched(F, box):
        calls.append(box)
        return certified(F, box) if len(calls) == 1 else answer()

    monkeypatch.setattr(zeros, "_certified_winding", patched)
    return calls


def test_quadrisect_refuses_child_counts_that_do_not_add_up(monkeypatch):
    # F = (e^{iz} - 1) / (iz) has the zeros +-2 pi in the box; children that
    # hold one zero each, for every pair of cuts, raise the best pair's error
    monkeypatch.setattr(zeros, "_MOMENT_CAP", 1)
    calls = _child_windings(monkeypatch, lambda: (1, None))
    with pytest.raises(NonIntegerWindingError,
                       match=r"^child counts \[1, 1, 1, 1\] do not sum to parent count 2$"):
        locate_zeros(closed_form(ONE, 1), SearchRect(-10, 10, -1, 1))
    assert len(calls) == 1 + 4 * len(_SPLIT_FRACS)


def test_quadrisect_reraises_when_every_pair_of_cuts_fails(monkeypatch):
    # each pair of cuts stops at its first child that does not certify
    monkeypatch.setattr(zeros, "_MOMENT_CAP", 1)
    tries = iter(range(len(_SPLIT_FRACS)))

    def fail():
        raise NonIntegerWindingError(f"pair {next(tries)} does not certify")

    calls = _child_windings(monkeypatch, fail)
    with pytest.raises(NonIntegerWindingError, match="^pair 0 does not certify$"):
        locate_zeros(closed_form(ONE, 1), SearchRect(-10, 10, -1, 1))
    assert len(calls) == 1 + len(_SPLIT_FRACS)


def test_unsolved_zeros_below_the_subdivision_floor_are_refused(monkeypatch):
    # no moment solve is accepted: cells shrink to the floor 100 tol = 1
    monkeypatch.setattr(zeros, "_moment_solve", lambda *args: None)
    with pytest.raises(ClusterUnresolvedError, match=r"^cell \(.*\) holds 1 unsolved zeros "
                                                     r"below the subdivision floor$"):
        locate_zeros(closed_form(ONE, 1), SearchRect(-10, 10, -1, 1), tol=1e-2)
    report, code = cli.run(FIXTURES / "cubic_vs_quadratic.json", None, tol=1e-2)
    assert code == cli.EXIT_NUMERIC_REFUSAL
    assert report["error"]["type"] == "ClusterUnresolvedError"
    assert report["error"]["stage"] == "zeros"
    assert report["error"]["message"].startswith("cell (")

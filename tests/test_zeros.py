import json
import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from bezoutiant import zeros
from bezoutiant.cli import ProblemSpec
from bezoutiant.exact import GR, Poly
from bezoutiant.transform import closed_form, reflected_transform
from bezoutiant.zeros import (
    _GL_NODES,
    _GL_WEIGHTS,
    _SPLIT_FRACS,
    ClusterUnresolvedError,
    NonIntegerWindingError,
    SearchRect,
    _box_corners,
    _certified_winding,
    _certified_windings,
    _guarded_box,
    _split_coord,
    _winding_integrals,
    bessel_reference,
    compare_zero_sets,
    count_zeros,
    locate_zeros,
    structure_checks,
)

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
    for psi2 in (TWO_T, Poly.of(0, 0, 1), Poly.of(1, GR(0, 1))):
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
    from bezoutiant.zeros import _boundary_samples
    sup = float(np.max(np.abs(Ft.eval_many(_boundary_samples(
        (rect.re_min, rect.re_max, rect.im_min, rect.im_max))))))
    for r in zs.zeros:
        assert r.residual <= 1e-9 * max(1.0, sup)


# -- batched contour evaluation ----------------------------------------------

def _panel_loop_winding(F, Fp, box, panels_per_edge):
    """The scalar oracle: two eval_many calls per panel, one panel at a time.

    Returns the winding number and the first moment, the integrals of
    F'/F and z F'/F over 2 pi i.
    """
    cs = _box_corners(box)
    total = moment = 0j
    for a, b in zip(cs, cs[1:] + cs[:1]):
        edges = np.linspace(0.0, 1.0, panels_per_edge + 1)
        for t0, t1 in zip(edges[:-1], edges[1:]):
            t = 0.5 * (t1 - t0) * _GL_NODES + 0.5 * (t1 + t0)
            z = a + (b - a) * t
            vals = Fp.eval_many(z) / F.eval_many(z)
            total += (b - a) * 0.5 * (t1 - t0) * np.sum(_GL_WEIGHTS * vals)
            moment += (b - a) * 0.5 * (t1 - t0) * np.sum(_GL_WEIGHTS * vals * z)
    return total / (2j * math.pi), moment / (2j * math.pi)


#: Criterion 9's rectangles and the zero counts of (e^{iz} - 1)/(iz) in them.
CRITERION_9_BOXES = [
    ((-1, 1, -1, 1), 0), ((-7, 7, -1, 1), 2), ((5, 8, -1, 1), 1),
    ((-13, 13, -1, 1), 4), ((1, 5, -1, 1), 0), ((-40, 40, -1, 1), 12),
    ((6, 7, -1, 1), 1), ((12, 13, -1, 1), 1), ((-26, -5, -1, 1), 4),
    ((0.5, 3, -1, 1), 0),
]


def test_winding_integrals_match_panel_loop():
    F = reflected_transform(Poly.of(1, GR(0, 2), -3, GR(1, 1)), 2)
    Fp = F.derivative()
    boxes = [(-10.0, 3.0, -5.0, 2.0), (-3.1, 7.7, -1.0, 4.0), (0.1, 0.2, 0.3, 0.5),
             (-20.5, 20.0, -5.5, 5.5)]
    # 256 panels x 4 edges x 4 boxes spans several eval_many chunks
    for panels in (4, 8, 64, 256):
        got, moments = _winding_integrals(F, boxes, panels)
        assert got.shape == moments.shape == (len(boxes),)
        for box, val, moment in zip(boxes, got, moments):
            want, want_moment = _panel_loop_winding(F, Fp, box, panels)
            assert abs(val - want) <= 1e-12 * max(1.0, abs(want))
            assert abs(moment - want_moment) <= 1e-12 * max(1.0, abs(want_moment))


def test_certified_windings_batch_equals_single():
    Ft = closed_form(ONE, 1)
    boxes = [box for box, _ in CRITERION_9_BOXES]
    batch = _certified_windings(Ft, boxes)
    single = [_certified_winding(Ft, b) for b in boxes]
    assert [n for n, _ in batch] == [n for n, _ in single]
    assert [n for n, _ in batch] == [want for _, want in CRITERION_9_BOXES]
    for (n, c), (_, c1) in zip(batch, single):
        assert (c is None) == (c1 is None) == (n == 0)
        if n:
            assert abs(c - c1) <= 1e-12 * abs(c1)


def test_certified_windings_error_names_failing_box():
    # zeros of (e^{iz} - 1)/(iz) at 2 pi and 4 pi lie on these boxes' edges
    Ft = closed_form(ONE, 1)
    good, bad, worse = (5, 8, -1, 1), (1, 2 * math.pi, -1, 1), (4 * math.pi, 14, -1, 1)
    with pytest.raises(NonIntegerWindingError, match=re.escape(str(bad))):
        _certified_windings(Ft, [good, bad, worse])
    with pytest.raises(NonIntegerWindingError, match=re.escape(str(worse))):
        _certified_windings(Ft, [worse, good])


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
    for a in (Fraction(1), Fraction(7, 3)):
        Ft = closed_form(ONE, a)
        step = 2 * math.pi / float(a)
        for k in (1, 2, -3):
            box = (k * step - 0.4 * step, k * step + 0.3 * step, -1.0, 1.0)
            n, centroid = _certified_winding(Ft, box)
            assert n == 1 and abs(centroid - k * step) < 1e-6
        # two zeros: the centroid is their mean
        n, centroid = _certified_winding(Ft, (0.5 * step, 2.5 * step, -1.0, 1.0))
        assert n == 2 and abs(centroid - 1.5 * step) < 1e-6
        assert _certified_winding(Ft, (0.1 * step, 0.9 * step, -1.0, 1.0)) == (0, None)


def _fixture_transforms(name):
    spec = ProblemSpec.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
    return spec, closed_form(spec.psi1, spec.a), reflected_transform(spec.psi2, spec.a)


def _loose_acceptance(monkeypatch):
    """The acceptance this locator once had: Newton from each cell's centre,
    its result kept up to several units outside the cell."""
    certified = zeros._certified_windings

    def no_centroids(F, boxes, stab_tol=1e-3):
        return [(n, complex("nan")) for n, _ in certified(F, boxes, stab_tol)]

    monkeypatch.setattr(zeros, "_certified_windings", no_centroids)
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
    g = [mpmath.mpc(mpq(c.re), mpq(c.im)) for c in F.density.coeffs]
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
        box, _ = _guarded_box(F, spec.rect)
        f, fp = _mp_transform(F), _mp_transform(F.derivative())
        for r in zs.zeros:
            with mpmath.workdps(50):
                root = complex(mpmath.findroot(f, mpmath.mpc(r.z), df=fp, solver="newton"))
            assert abs(root - r.z) <= 1e-12 * max(1.0, abs(r.z))
            assert zeros._in_box(r.z, box)
        simple = [r.z for r in zs.zeros if r.multiplicity == 1]
        for i, z in enumerate(simple):
            assert all(abs(z - w) > spec.delta for w in simple[i + 1:])
        assert sum(r.multiplicity for r in zs.zeros) == zs.total_count

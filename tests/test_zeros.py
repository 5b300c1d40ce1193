import math
import re
from fractions import Fraction

import numpy as np
import pytest

from bezoutiant.exact import GR, Poly
from bezoutiant.transform import closed_form, reflected_transform
from bezoutiant.zeros import (
    _GL_NODES,
    _GL_WEIGHTS,
    _SPLIT_FRACS,
    NonIntegerWindingError,
    SearchRect,
    _box_corners,
    _certified_winding,
    _certified_windings,
    _split_coord,
    _winding_integrals,
    bessel_reference,
    compare_zero_sets,
    count_zeros,
    locate_zeros,
    structure_checks,
)

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
    """The scalar oracle: two eval_many calls per panel, one panel at a time."""
    cs = _box_corners(box)
    total = 0j
    for a, b in zip(cs, cs[1:] + cs[:1]):
        edges = np.linspace(0.0, 1.0, panels_per_edge + 1)
        for t0, t1 in zip(edges[:-1], edges[1:]):
            t = 0.5 * (t1 - t0) * _GL_NODES + 0.5 * (t1 + t0)
            z = a + (b - a) * t
            vals = Fp.eval_many(z) / F.eval_many(z)
            total += (b - a) * 0.5 * (t1 - t0) * np.sum(_GL_WEIGHTS * vals)
    return total / (2j * math.pi)


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
        got = _winding_integrals(F, Fp, boxes, panels)
        assert got.shape == (len(boxes),)
        for box, val in zip(boxes, got):
            want = _panel_loop_winding(F, Fp, box, panels)
            assert abs(val - want) <= 1e-12 * max(1.0, abs(want))


def test_certified_windings_batch_equals_single():
    Ft = closed_form(ONE, 1)
    Fp = Ft.derivative()
    boxes = [box for box, _ in CRITERION_9_BOXES]
    batch = _certified_windings(Ft, Fp, boxes)
    assert batch == [_certified_winding(Ft, Fp, b) for b in boxes]
    assert batch == [want for _, want in CRITERION_9_BOXES]


def test_certified_windings_error_names_failing_box():
    # zeros of (e^{iz} - 1)/(iz) at 2 pi and 4 pi lie on these boxes' edges
    Ft = closed_form(ONE, 1)
    Fp = Ft.derivative()
    good, bad, worse = (5, 8, -1, 1), (1, 2 * math.pi, -1, 1), (4 * math.pi, 14, -1, 1)
    with pytest.raises(NonIntegerWindingError, match=re.escape(str(bad))):
        _certified_windings(Ft, Fp, [good, bad, worse])
    with pytest.raises(NonIntegerWindingError, match=re.escape(str(worse))):
        _certified_windings(Ft, Fp, [worse, good])


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

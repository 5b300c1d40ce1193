"""End-to-end acceptance gate.

Each numbered check prints one pass/fail line in the terminal summary (see
the hook in conftest.py) and fails the suite individually, so a red run
pinpoints exactly which guarantee broke.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from bezoutiant.cli import EXIT_CONFLICT, run
from bezoutiant.exact import Poly
from bezoutiant.kernel import (
    build_kernel,
    build_m_functions,
    check_adjoint_identity,
    normalize_pair,
)
from bezoutiant.operator_lab import convergence_study
from bezoutiant.symbol import (
    OUTCOME_COINCIDE,
    OUTCOME_NO_COMMON,
    CoincidenceCaseError,
    TieCancellationError,
    decide,
    monomial_density,
    monomial_order,
)
from bezoutiant.transform import closed_form, reflected_transform
from bezoutiant.zeros import (
    SearchRect,
    compare_zero_sets,
    count_zeros,
    locate_zeros,
    structure_checks,
)
from conftest import bessel_reference, random_admissible_poly

FIXTURES = Path(__file__).parent / "fixtures"
RESULTS = []

ONE = Poly.of(1)
T = Poly.of(0, 1)
TWO_T = Poly.of(0, 2)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"criterion {number:2d} FAIL  {title}")
                raise
            dt = time.monotonic() - t0
            RESULTS.append(f"criterion {number:2d} PASS  {title}  [{dt:.2f}s]")
        return wrapper
    return deco


@criterion(1, "adjoint identity exact on fixture and 20 random pairs, < 10 s")
def test_criterion_01_adjoint_identity(rng):
    t0 = time.monotonic()
    pair = normalize_pair(ONE, TWO_T, 1)
    k = build_kernel(pair)
    mf = build_m_functions(pair)
    from bezoutiant.kernel import adjoint_apply_to_one
    assert adjoint_apply_to_one(k) == Poly.of(0, 1, -1)  # x(1-x)
    assert check_adjoint_identity(k, mf)
    for _ in range(20):
        pair = normalize_pair(
            random_admissible_poly(rng, rng.randint(0, 6), 1, complex_coeffs=True),
            random_admissible_poly(rng, rng.randint(0, 6), 1, complex_coeffs=True),
            1,
        )
        assert check_adjoint_identity(build_kernel(pair), build_m_functions(pair))
    assert time.monotonic() - t0 < 10.0


@criterion(2, "coincidence pairs collapse the kernel and verdict")
def test_criterion_02_coincidence_law():
    cases = [(ONE, ONE, 1)]
    for m in range(4):
        for n in range(4):
            if (m, n) == (n, m) and m == n:
                continue
            cases.append((monomial_density(m, n, 1), monomial_density(n, m, 1), 1))
    cases.append((monomial_density(1, 2, 2), monomial_density(2, 1, 2), 2))
    for psi1, psi2, a in cases:
        pair = normalize_pair(psi1, psi2, a)
        k = build_kernel(pair)
        assert k.u_lower.is_zero and k.u_upper.is_zero
        assert decide(psi1, psi2, a).outcome == OUTCOME_COINCIDE


@criterion(3, "order formula matches the general expansion on all monomial "
              "pairs with exponents <= 5, < 30 s")
def test_criterion_03_order_cross_validation():
    t0 = time.monotonic()
    checked = 0
    cancelled = set()
    for m1 in range(6):
        for n1 in range(6):
            for m2 in range(6):
                for n2 in range(6):
                    if m1 + n1 < m2 + n2:
                        continue
                    try:
                        r, _ = monomial_order(m1, n1, m2, n2, 1)
                    except CoincidenceCaseError:
                        continue
                    except TieCancellationError:
                        # the formula's leading terms cancel; the true
                        # order must then sit strictly below the tied value
                        order = decide(monomial_density(m1, n1, 1),
                                       monomial_density(m2, n2, 1), 1).diagnostics["l_order"]
                        assert order < n1 - m2 - 1
                        cancelled.add((m1, n1, m2, n2))
                        continue
                    order = decide(monomial_density(m1, n1, 1),
                                   monomial_density(m2, n2, 1), 1).diagnostics["l_order"]
                    assert order == r, (m1, n1, m2, n2)
                    checked += 1
    assert checked > 500
    # cancellation happens exactly for the symmetric pairs with even offset
    assert cancelled == {
        (2, 2, 0, 0), (3, 3, 1, 1), (4, 4, 0, 0),
        (4, 4, 2, 2), (5, 5, 1, 1), (5, 5, 3, 3),
    }
    assert time.monotonic() - t0 < 30.0


@criterion(4, "NoCommonZeros pairs have disjoint zero sets on "
              "[-40,40]x[-5,5] at delta 1e-3, < 60 s per pair")
def test_criterion_04_no_common_zeros():
    rect = SearchRect(-40, 40, -5, 5)
    for psi1, psi2 in ((ONE, T), (T, Poly.of(0, 0, 1)), (ONE, Poly.of(0, 0, 0, 1))):
        t0 = time.monotonic()
        assert decide(psi1, psi2, 1).outcome == OUTCOME_NO_COMMON
        z1 = locate_zeros(closed_form(psi1, 1), rect)
        z21 = locate_zeros(reflected_transform(psi2, 1), rect)
        rep = compare_zero_sets(z1, z21, delta=1e-3)
        assert not rep.common
        assert rep.min_distance > 1e-3
        assert time.monotonic() - t0 < 60.0


@criterion(5, "half-integer Bessel zero levels located to 1e-8 and pairwise "
              "disjoint away from the origin")
def test_criterion_05_bessel_levels():
    rect = SearchRect(0.3, 16, -0.5, 0.5)
    sets = []
    psi = ONE
    bump = Poly.of(0, 2, -1)  # t(2 - t)
    for n in range(3):
        zs = locate_zeros(closed_form(psi, 2), rect)
        ref = [x for x in bessel_reference(n, 16) if x > 0.3 + rect.boundary_margin]
        got = sorted(z.real for z in zs.points())
        assert len(got) == len(ref)
        assert max(abs(z.imag) for z in zs.points()) < 1e-8
        for g, r in zip(got, ref):
            assert abs(g - r) < 1e-8
        sets.append(zs)
        psi = psi * bump
    for i in range(3):
        for j in range(i + 1, 3):
            assert not compare_zero_sets(sets[i], sets[j], delta=1e-3).common


@criterion(6, "asymmetric density has no real zeros and no conjugate pairs; "
              "symmetric density has real zeros at the predicted points")
def test_criterion_06_structure_claims():
    zs = locate_zeros(closed_form(TWO_T, 1), SearchRect(-30, 30, -8, 8))
    flags = structure_checks(zs)
    assert flags.no_real_zeros and flags.no_conjugate_pairs
    v = decide(TWO_T, ONE, 1)
    assert v.no_real_zeros and v.no_conjugate_pairs

    zs = locate_zeros(closed_form(ONE, 1), SearchRect(-30, 30, -1, 1))
    assert not structure_checks(zs).no_real_zeros
    got = sorted(z.real for z in zs.points())
    want = [2 * math.pi * k for k in range(-4, 5) if k]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-10


@criterion(7, "operator identity residual decays at order 2; coincidence "
              "fixture residual <= 1e-13 at every grid size")
def test_criterion_07_operator_convergence():
    pair = normalize_pair(ONE, TWO_T, 1)
    study = convergence_study(pair, build_kernel(pair), build_m_functions(pair),
                              sizes=(32, 64, 128, 256))
    for ratio in study["ratios"]:
        assert 3.2 <= ratio <= 4.8
    pair = normalize_pair(ONE, ONE, 1)
    study = convergence_study(pair, build_kernel(pair), build_m_functions(pair),
                              sizes=(32, 64, 128, 256))
    assert all(r <= 1e-13 for r in study["residuals"])


@criterion(8, "reflected-transform zeros are the conjugates of the plain "
              "transform zeros within 1e-8")
def test_criterion_08_conjugation_law():
    rect = SearchRect(-20, 20, -4, 4)
    for psi2 in (ONE, TWO_T, Poly.of(0, 0, 1), Poly.of(1, (1, 1))):
        z2 = locate_zeros(closed_form(psi2, 1), rect)
        z21 = locate_zeros(reflected_transform(psi2, 1), rect.mirrored())
        conj_pts = sorted((z.conjugate() for z in z2.points()),
                          key=lambda z: (z.real, z.imag))
        pts = z21.points()
        assert len(conj_pts) == len(pts)
        for a, b in zip(conj_pts, pts):
            assert abs(a - b) < 1e-8


@criterion(9, "winding-number counts exact on ten rectangles with known "
              "zero counts")
def test_criterion_09_argument_principle():
    Ft = closed_form(ONE, 1)  # (e^{iz} - 1)/(iz), zeros at 2 pi k, k != 0
    rectangles = [
        ((-1, 1, -1, 1), 0),
        ((-7, 7, -1, 1), 2),
        ((5, 8, -1, 1), 1),
        ((-13, 13, -1, 1), 4),
        ((1, 5, -1, 1), 0),
        ((-40, 40, -1, 1), 12),
        ((6, 7, -1, 1), 1),
        ((12, 13, -1, 1), 1),
        ((-26, -5, -1, 1), 4),
        ((0.5, 3, -1, 1), 0),
    ]
    for (x0, x1, y0, y1), want in rectangles:
        assert count_zeros(Ft, SearchRect(x0, x1, y0, y1)) == want, (x0, x1)


@criterion(10, "no symbolic/numerical conflict across the fixture corpus")
def test_criterion_10_pipeline_consistency(tmp_path):
    corpus = sorted(FIXTURES.glob("*.json"))
    assert corpus
    ran = 0
    for path in corpus:
        out = tmp_path / (path.stem + ".report.json")
        report, code = run(path, out, tasks=("decide", "zeros"))
        assert code != EXIT_CONFLICT, path.name
        if "conflict" in report:
            assert report["conflict"] is False, path.name
            ran += 1
        assert json.loads(out.read_text()) == report
    assert ran >= 3

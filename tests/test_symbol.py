from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bezoutiant.exact import GR, Poly
from bezoutiant.kernel import build_kernel, normalize_pair
from bezoutiant.symbol import (
    COEFF_NONALGEBRAIC,
    CoincidenceCaseError,
    OrderViolationError,
    TieCancellationError,
    OUTCOME_COINCIDE,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NO_COMMON,
    _boundary_sums,
    _mirrored,
    decide,
    l_operator,
    monomial_density,
    monomial_order,
    v_symbol,
)
from bezoutiant.transform import closed_form
from bezoutiant.zeros import SearchRect, locate_zeros, structure_checks
from conftest import random_admissible_poly

ONE = Poly.of(1)
TWO_T = Poly.of(0, 2)


def test_v_symbol_examples():
    assert v_symbol(normalize_pair(TWO_T, ONE, 1)).is_zero
    assert v_symbol(normalize_pair(TWO_T, TWO_T, 1)).is_zero


def test_v_symbol_coincidence_pairs(rng):
    for _ in range(6):
        psi2 = random_admissible_poly(rng, rng.randint(1, 4), 1)
        psi1 = psi2.reflect(1)
        if not psi1.integral(0, 1) or psi1.degree < psi2.degree:
            continue
        assert v_symbol(normalize_pair(psi1, psi2, 1)).is_zero


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
gaussian_polys = st.lists(st.builds(GR, rationals, rationals), min_size=1,
                          max_size=11).map(lambda cs: Poly(tuple(cs)))


def _nth_derivative(p: Poly, n: int) -> Poly:
    for _ in range(n):
        p = p.derivative()
    return p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gaussian_polys, gaussian_polys, st.sampled_from([F(1), F(7, 3), F(1, 2)]))
def test_boundary_sum_identity_and_zero_symbol(p, q, a):
    # W_r = int_0^a (Psi_2^(r+1) g1 + (-1)^r Psi_2 g1^(r+1)), which is 0
    # for r >= Q: V vanishes for every pair (symbol module doc)
    psi1, psi2 = (p, q) if p.degree >= q.degree else (q, p)
    assume(psi1.integral(0, a) and psi2.integral(0, a))
    pair = normalize_pair(psi1, psi2, a)
    Q = pair.psi1.degree
    g1 = pair.psi1.conjugate()
    w = _boundary_sums(pair, 0, 2 * Q + 1)
    for r, w_r in enumerate(w):
        integrand = (_nth_derivative(pair.psi2, r + 1) * g1
                     + pair.psi2 * _nth_derivative(g1, r + 1) * (-1) ** r)
        assert w_r == integrand.integral(0, a)
    assert not any(w[Q:])
    assert v_symbol(pair).is_zero


UNITS = [GR(1), GR(-1), GR(0, 1), GR(0, -1), GR(F(3, 5), F(4, 5))]


@st.composite
def mirror_pairs(draw):
    """(psi1, psi2, a, kind): random, scaled-coincident or unit-symmetric
    pairs, in either degree order."""
    p, q = draw(gaussian_polys), draw(gaussian_polys)
    a = draw(st.sampled_from([F(1), F(7, 3), F(1, 2)]))
    kind = draw(st.sampled_from(["random", "coincident", "symmetric"]))
    if kind == "coincident":  # Psi_2 = c conj Psi_1(a-x)
        c = draw(st.builds(GR, rationals, rationals))
        assume(c)
        q = p.reflect(a) * c
    elif kind == "symmetric":  # p = u conj p(a-x) for the unit u
        p = p + p.reflect(a) * draw(st.sampled_from(UNITS))
    if draw(st.booleans()):
        p, q = q, p
        kind = "swapped " + kind
    return p, q, a, kind


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mirror_pairs())
def test_mirror_tests_from_jets_match_reflect(case):
    # the jet comparisons in `decide` against the reflect definitions
    psi1, psi2, a, kind = case
    assume(psi1.integral(0, a) and psi2.integral(0, a))
    pair = normalize_pair(psi1, psi2, a)
    _, g1_0, psi2_a, g1_a = pair.jets
    symmetric = pair.psi1 == pair.psi1.reflect(a)
    coincident = pair.psi1 == pair.psi2.reflect(a)
    assert _mirrored(g1_0, g1_a, conjugate=True) == symmetric
    assert _mirrored(g1_0, psi2_a, conjugate=False) == coincident
    if kind == "symmetric":
        assert symmetric
    if kind in ("coincident", "swapped coincident"):
        assert coincident


def test_v_symbol_order_violation():
    with pytest.raises(OrderViolationError):
        v_symbol(normalize_pair(ONE, TWO_T, 1))


def test_l_operator_examples():
    L = l_operator(normalize_pair(TWO_T, ONE, 1))
    assert L.coeffs == (GR(2),) and L.order == 0
    L = l_operator(normalize_pair(TWO_T, TWO_T, 1))
    assert L.coeffs == (GR(4),) and L.order == 0
    L = l_operator(normalize_pair(ONE, ONE, 1))
    assert L.is_zero and L.order is None


def test_monomial_order_examples():
    r, lead = monomial_order(1, 0, 0, 0, 1)
    assert r == 0
    r, _ = monomial_order(0, 3, 0, 1, 1)
    assert r == 2
    with pytest.raises(CoincidenceCaseError):
        monomial_order(1, 2, 2, 1, 1)
    with pytest.raises(OrderViolationError):
        monomial_order(0, 0, 1, 1, 1)


def test_monomial_order_tie_case_leading():
    # x(1-x) against 1: both candidate orders are 0 and the boundary
    # contributions add up (B1 = 1, B2 = 1); the exact operator is the
    # constant 2 before normalization
    r, lead = monomial_order(1, 1, 0, 0, 1)
    assert r == 0 and lead == GR(2)
    pair = normalize_pair(monomial_density(1, 1, 1), ONE, 1)
    # normalized densities rescale the operator by 1/(conj(R1) R2) = 6
    assert l_operator(pair).coeffs == (GR(12),)


def test_monomial_order_tie_cancellation():
    # symmetric pairs with even exponent offset cancel at the tied degree
    # and the true order drops below the formula value
    with pytest.raises(TieCancellationError):
        monomial_order(2, 2, 0, 0, 1)
    pair = normalize_pair(monomial_density(2, 2, 1), ONE, 1)
    assert l_operator(pair).order == 0  # formula value would be 1


def test_monomial_density():
    # x^1 (1-x)^2 = x - 2x^2 + x^3
    assert monomial_density(1, 2, 1) == Poly.of(0, 1, -2, 1)


def test_order_cross_validation_subset():
    # spot checks ahead of the exhaustive acceptance sweep
    for (m1, n1, m2, n2, a) in [
        (1, 0, 0, 0, 1), (0, 3, 0, 1, 1), (2, 2, 1, 1, 2),
        (3, 1, 0, 2, F(3, 2)), (0, 5, 2, 1, 1),
    ]:
        pair = normalize_pair(monomial_density(m1, n1, a), monomial_density(m2, n2, a), a)
        r, _ = monomial_order(m1, n1, m2, n2, a)
        assert l_operator(pair).order == r


def test_decide_fixture_no_common():
    v = decide(TWO_T, ONE, 1)
    assert v.outcome == OUTCOME_NO_COMMON
    assert v.diagnostics["l_order"] == 0
    assert v.no_real_zeros and v.no_conjugate_pairs


def test_decide_coincidence(rng):
    v = decide(ONE, ONE, 1)
    assert v.outcome == OUTCOME_COINCIDE
    v = decide(monomial_density(1, 2, 1), monomial_density(2, 1, 1), 1)
    assert v.outcome == OUTCOME_COINCIDE
    # psi2 = c conj(psi1(a - x)) gives F21 = c F1: the normalized pair is
    # coincident whatever the constant c
    v = decide(ONE, Poly.of(2), 1)
    assert v.outcome == OUTCOME_COINCIDE
    for _ in range(6):
        psi1 = random_admissible_poly(rng, rng.randint(0, 5), F(7, 3))
        c = GR(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(1, 9), 3))
        v = decide(psi1, psi1.reflect(F(7, 3)) * c, F(7, 3))
        assert v.outcome == OUTCOME_COINCIDE and v.diagnostics["coincidence"]


def test_decide_flags_symmetric_up_to_unit_factor():
    # psi1 = i(1 + x - x^2) equals -conj(psi1(1 - x)); once normalized it
    # is symmetric, and F1 does have real zeros
    psi1 = Poly.of(GR(0, 1), GR(0, 1), GR(0, -1))
    assert psi1 == psi1.reflect(1) * -1
    v = decide(psi1, ONE, 1)
    assert v.outcome == OUTCOME_NO_COMMON
    assert not v.no_real_zeros and not v.no_conjugate_pairs
    # the located zeros are real, so a no_real_zeros claim would be false
    zs = locate_zeros(closed_form(psi1, 1), SearchRect(-20, 20, -5, 5))
    assert zs.total_count == 6
    assert not structure_checks(zs).no_real_zeros


def test_decide_symmetric_density_flags():
    # psi1 = 1 + t(1-t) is symmetric about a/2, so the structural claims
    # about its transform do not apply
    v = decide(Poly.of(1, 1, -1), ONE, 1)
    assert v.outcome == OUTCOME_NO_COMMON
    assert not v.diagnostics["swapped"]
    assert not v.no_real_zeros and not v.no_conjugate_pairs


def test_decide_flags_follow_the_ordered_pair():
    # a swapped call reports the flags of the reordered leading density
    v = decide(ONE, TWO_T, 1)
    assert v.outcome == OUTCOME_NO_COMMON
    assert v.diagnostics["swapped"]
    assert v.no_real_zeros and v.no_conjugate_pairs


def test_decide_zero_mass_inconclusive():
    v = decide(Poly.of(F(-1, 2), 1), ONE, 1)
    assert v.outcome == OUTCOME_INCONCLUSIVE
    assert "zero-mass" in v.diagnostics["reason"]


def test_decide_swap_symmetry(rng):
    for _ in range(10):
        p1 = random_admissible_poly(rng, rng.randint(0, 4), 1)
        p2 = random_admissible_poly(rng, rng.randint(0, 4), 1)
        assert decide(p1, p2, 1).outcome == decide(p2, p1, 1).outcome


def test_decide_rational_never_inconclusive(rng):
    for _ in range(20):
        p1 = random_admissible_poly(rng, rng.randint(0, 5), 1)
        p2 = random_admissible_poly(rng, rng.randint(0, 5), 1)
        v = decide(p1, p2, 1)
        assert v.outcome in (OUTCOME_NO_COMMON, OUTCOME_COINCIDE)


def test_decide_nonalgebraic_path():
    # The symbol identity makes V vanish for every polynomial pair (the
    # bilinear sum is a constant concomitant), so the non-algebraic path
    # can only ever report the coincidence case or fall back to
    # inconclusive -- never a zero-free certificate.
    v = decide(TWO_T, ONE, 1, coeff_class=COEFF_NONALGEBRAIC)
    assert v.outcome == OUTCOME_INCONCLUSIVE
    assert v.diagnostics["v_is_zero"]
    v = decide(ONE, ONE, 1, coeff_class=COEFF_NONALGEBRAIC)
    assert v.outcome == OUTCOME_COINCIDE


def test_verdict_kernel_consistency(rng):
    # ZeroSetsCoincide exactly when the kernel vanishes identically
    cases = [
        (ONE, ONE), (TWO_T, ONE), (ONE, TWO_T),
        (monomial_density(1, 2, 1), monomial_density(2, 1, 1)),
        (random_admissible_poly(rng, 3, 1), random_admissible_poly(rng, 2, 1)),
    ]
    for p1, p2 in cases:
        v = decide(p1, p2, 1)
        k = build_kernel(normalize_pair(p1, p2, 1))
        vanished = k.u_lower.is_zero and k.u_upper.is_zero
        assert (v.outcome == OUTCOME_COINCIDE) == vanished


def test_verdict_serialization():
    d = decide(TWO_T, ONE, 1).to_json()
    assert d["outcome"] == OUTCOME_NO_COMMON
    assert isinstance(d["diagnostics"]["normalizers"], list)

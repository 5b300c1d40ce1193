import importlib.util
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bezoutiant import symbol
from bezoutiant.cli import ProblemSpec
from bezoutiant.exact import Poly, _json_value
from bezoutiant.kernel import build_kernel, normalize_pair
from bezoutiant.symbol import (
    CoincidenceCaseError,
    OrderViolationError,
    TieCancellationError,
    OUTCOME_COINCIDE,
    OUTCOME_COMMON,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NO_COMMON,
    _equal,
    decide,
    l_operator,
    monomial_density,
    monomial_order,
    v_symbol,
)
from bezoutiant.transform import closed_form, reflected_transform
from bezoutiant.zeros import SearchRect, locate_zeros, structure_checks
from conftest import as_fractions, fractions_of, is_zero, random_admissible_poly, triple_of

ONE = Poly.of(1)
TWO_T = Poly.of(0, 2)


def test_v_symbol_examples():
    assert v_symbol(normalize_pair(TWO_T, ONE, 1)).is_zero
    assert v_symbol(normalize_pair(TWO_T, TWO_T, 1)).is_zero


def test_v_symbol_coincidence_pairs(rng):
    for _ in range(6):
        psi2 = random_admissible_poly(rng, rng.randint(1, 4), 1)
        psi1 = psi2.reflect(1)
        if is_zero(psi1.integral(0, 1)) or psi1.degree < psi2.degree:
            continue
        assert v_symbol(normalize_pair(psi1, psi2, 1)).is_zero


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
gaussian_polys = st.lists(st.tuples(rationals, rationals), min_size=1,
                          max_size=11).map(lambda cs: Poly.of(*cs))


def _nth_derivative(p: Poly, n: int) -> Poly:
    for _ in range(n):
        p = p.derivative()
    return p


def _laurent_poly(triple) -> Poly:
    """sum_k c_k w^(k+1) from an integer triple `p` or `q` of a transform."""
    return Poly.of(0, *fractions_of(triple))


def _laurent_polys(f1, f21) -> tuple:
    """(P1, Q1, P21, Q21) of two transforms, in w = 1/z."""
    return tuple(_laurent_poly(t) for t in (f1.p, f1.q, f21.p, f21.q))


def _d(f1, f21) -> Poly:
    """D = P1 Q21 - P21 Q1 of F_1 and F_{2,1}, in w = 1/z."""
    p1, q1, p21, q21 = _laurent_polys(f1, f21)
    return p1 * q21 - p21 * q1


def _normalized_transforms(pair) -> tuple:
    return closed_form(pair.psi1, pair.a), reflected_transform(pair.psi2, pair.a)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gaussian_polys, gaussian_polys, st.sampled_from([F(1), F(7, 3), F(1, 2)]))
def test_boundary_sum_identity_and_zero_symbol(p, q, a):
    # W_m = i^m [w^(m+2)] D equals int_0^a (Psi_2^(m+1) g1 + (-1)^m Psi_2
    # g1^(m+1)), which is 0 for m >= Q: V vanishes for every pair (symbol
    # module doc); L(D) and V read these W
    psi1, psi2 = (p, q) if p.degree >= q.degree else (q, p)
    assume(not is_zero(psi1.integral(0, a)) and not is_zero(psi2.integral(0, a)))
    pair = normalize_pair(psi1, psi2, a)
    Q = pair.psi1.degree
    g1 = pair.psi1.conjugate()
    d = _d(*_normalized_transforms(pair))
    i_powers = ((1, 0), (0, 1), (-1, 0), (0, -1))
    coeffs = fractions_of(d.triple) + [(0, 0)] * (2 * Q + 3)  # [w^k] D, zero past its degree
    w = [(x * c - y * s, x * s + y * c)  # i^m [w^(m+2)] D, m = 0..2Q
         for (x, y), (c, s) in zip(coeffs[2:2 * Q + 3], i_powers * (Q + 1))]
    for m, w_m in enumerate(w):
        integrand = (_nth_derivative(pair.psi2, m + 1) * g1
                     + pair.psi2 * _nth_derivative(g1, m + 1) * (-1) ** m)
        assert w_m == as_fractions(integrand.integral(0, a))
    assert all(w_m == (0, 0) for w_m in w[Q:])
    m0 = next((m for m, w_m in enumerate(w[:Q]) if w_m != (0, 0)), Q)
    assert l_operator(pair) == tuple(triple_of(*w_m) for w_m in reversed(w[m0:Q]))
    assert v_symbol(pair).is_zero


UNITS = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (3, 4, 5)]


@st.composite
def mirror_pairs(draw):
    """(psi1, psi2, a, kind): random, scaled-coincident or unit-symmetric
    pairs, in either degree order."""
    p, q = draw(gaussian_polys), draw(gaussian_polys)
    a = draw(st.sampled_from([F(1), F(7, 3), F(1, 2)]))
    kind = draw(st.sampled_from(["random", "coincident", "symmetric"]))
    if kind == "coincident":  # Psi_2 = c conj Psi_1(a-x)
        c = draw(st.tuples(rationals, rationals))
        assume(c != (0, 0))
        q = p.reflect(a) * triple_of(*c)
    elif kind == "symmetric":  # p = u conj p(a-x) for the unit u
        p = p + p.reflect(a) * draw(st.sampled_from(UNITS))
    if draw(st.booleans()):
        p, q = q, p
        kind = "swapped " + kind
    return p, q, a, kind


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mirror_pairs())
def test_mirror_tests_from_jets_match_reflect(case):
    # the proportionality tests in `decide` against the reflect definitions
    # of the normalized pair: coincident iff Q21 = c Q1, symmetric iff
    # Q1 = c conj P1, for a constant c != 0, on the spec's transforms
    psi1, psi2, a, kind = case
    r1, r2 = psi1.integral(0, a), psi2.integral(0, a)
    assume(not is_zero(r1) and not is_zero(r2))
    pair = normalize_pair(psi1, psi2, a)
    f1, f21 = closed_form(psi1, a), reflected_transform(psi2, a)
    symmetric = pair.psi1 == pair.psi1.reflect(a)
    coincident = pair.psi1 == pair.psi2.reflect(a)
    assert _equal(f1.q, f1.p, conjugate=True) == symmetric
    assert _equal(f21.q, f1.q) == coincident
    if kind == "symmetric":
        assert symmetric
    if kind in ("coincident", "swapped coincident"):
        assert coincident


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mirror_pairs())
def test_decide_matches_the_normalized_ordered_pair(case):
    # decide reads the spec's pair, unnormalized and unordered; the reference
    # normalizes and orders it and reads l_operator and the mirror tests
    psi1, psi2, a, _ = case
    r1, r2 = psi1.integral(0, a), psi2.integral(0, a)
    assume(not is_zero(r1) and not is_zero(r2))
    v = decide(psi1, psi2, a)
    swapped = psi1.degree < psi2.degree
    ordered = normalize_pair(*((psi2, psi1) if swapped else (psi1, psi2)), a)
    g1, g21 = _normalized_transforms(ordered)
    coincident = _equal(g1.q, g21.q)
    asym = not _equal(g1.q, g1.p, conjugate=True)
    assert v.diagnostics["swapped"] == swapped
    assert v.diagnostics["normalizers"] == [_json_value(*ordered.r1), _json_value(*ordered.r2)]
    assert v.diagnostics["coincidence"] == coincident
    assert v.no_real_zeros == v.no_conjugate_pairs == asym
    if coincident:
        assert (v.outcome, v.theorem) == (OUTCOME_COINCIDE, "coincidence case")
    else:
        L = l_operator(ordered)
        assert v.diagnostics["l_order"] == (len(L) - 1 if L else None)
        # the outcome and G against sympy: test_oracles.py
        assert (v.outcome == OUTCOME_INCONCLUSIVE) == (L == ())
    # scale: D_spec = conj R1 R2 D_norm; swap: D of (psi2, psi1) is conj D
    d = _d(*v.transforms)
    scale = Poly.of(as_fractions(r1)).conjugate() * Poly.of(as_fractions(r2))  # conj R1 R2
    assert d == _d(*_normalized_transforms(normalize_pair(psi1, psi2, a))) * scale
    assert _d(closed_form(psi2, a), reflected_transform(psi1, a)) == d.conjugate()


def test_laurent_numerators_vanish_at_shared_algebraic_zero():
    # in the spec's order, which decide reads, F_1 and F_{2,1} share the
    # zero z = i, so D(1/z) = 0 there and, since e^{iaz} = e^-a is
    # transcendental, P1, Q1, P21 and Q21 all vanish at w = 1/z = -i: D is
    # not the zero polynomial, and G = gcd(P1, Q1, P21, Q21) = w + i
    v = decide(Poly.of(1, -3, 1), Poly.of(-5, 7, 3, -1), 1)
    assert v.diagnostics["swapped"]
    assert not _d(*v.transforms).is_zero
    assert all(is_zero(t((0, -1, 1))) for t in _laurent_polys(*v.transforms))
    assert v.outcome == OUTCOME_COMMON
    assert v.diagnostics["gcd"] == [{"re": "0", "im": "1"}, "1"]
    (z,) = v.diagnostics["common_zeros"]
    assert abs(complex(z["re"], z["im"]) - 1j) < 1e-15


def test_laurent_numerators_when_d_vanishes():
    # F_{2,1} = (1 - iz) F_1: D = 0 and L(D) = 0, yet only the factor
    # 1 - iz = (w - i)/w of F_{2,1} vanishes at w = i
    pair = normalize_pair(Poly.of(0, 1, -1), Poly.of(-1, 3, -1), 1)
    assert _d(*_normalized_transforms(pair)).is_zero
    assert l_operator(pair) == ()
    p1, q1, p21, q21 = (t((0, 1, 1)) for t in _laurent_polys(*_normalized_transforms(pair)))
    assert not is_zero(p1) and not is_zero(q1)
    assert is_zero(p21) and is_zero(q21)
    v = decide(Poly.of(0, 1, -1), Poly.of(-1, 3, -1), 1)
    assert v.outcome == OUTCOME_INCONCLUSIVE and v.diagnostics["l_order"] is None
    assert v.diagnostics["reason"].startswith("D \u2261 0 without coincidence")


def test_v_symbol_order_violation():
    with pytest.raises(OrderViolationError):
        v_symbol(normalize_pair(ONE, TWO_T, 1))


def test_l_operator_examples():
    assert l_operator(normalize_pair(TWO_T, ONE, 1)) == ((2, 0, 1),)
    assert l_operator(normalize_pair(TWO_T, TWO_T, 1)) == ((4, 0, 1),)
    assert l_operator(normalize_pair(ONE, ONE, 1)) == ()


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
    assert r == 0 and lead == 2 and isinstance(lead, F)
    pair = normalize_pair(monomial_density(1, 1, 1), ONE, 1)
    # normalized densities rescale the operator by 1/(conj(R1) R2) = 6
    assert l_operator(pair) == ((12, 0, 1),)


def test_monomial_order_tie_cancellation():
    # symmetric pairs with even exponent offset cancel at the tied degree
    # and the true order drops below the formula value
    with pytest.raises(TieCancellationError):
        monomial_order(2, 2, 0, 0, 1)
    pair = normalize_pair(monomial_density(2, 2, 1), ONE, 1)
    assert len(l_operator(pair)) == 1  # order 0; the formula value would be 1


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
        assert len(l_operator(pair)) == r + 1


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
        c = triple_of(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(1, 9), 3))
        v = decide(psi1, psi1.reflect(F(7, 3)) * c, F(7, 3))
        assert v.outcome == OUTCOME_COINCIDE and v.diagnostics["coincidence"]


def test_decide_flags_symmetric_up_to_unit_factor():
    # psi1 = i(1 + x - x^2) equals -conj(psi1(1 - x)); once normalized it
    # is symmetric, and F1 does have real zeros
    psi1 = Poly.of((0, 1), (0, 1), (0, -1))
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


def test_decide_zero_mass_decided():
    # one zero mass: G = 1 and z = 0 is no common zero (F_{2,1}(0) = R2 = 1)
    v = decide(Poly.of(F(-1, 2), 1), ONE, 1)
    assert v.outcome == OUTCOME_NO_COMMON
    assert v.diagnostics["normalizers"] == ["0", "1"]
    # s = 5^((p-1)/4), 5 the least non-residue mod PRIME
    assert v.diagnostics["certificate"] == {"p": symbol.PRIME, "sqrt_m1": 357924867}
    # both masses zero: F_1(0) = conj R1 = 0 = R2 = F_{2,1}(0), and G = 1
    v = decide(Poly.of(F(-1, 2), 1), Poly.of(F(1, 6), -1, 1), 1)
    assert v.outcome == OUTCOME_COMMON
    assert v.diagnostics["gcd"] == ["1"]
    assert v.diagnostics["common_zeros"] == [{"re": 0.0, "im": 0.0}]


def _benchmark_pair(name):
    """The size criteria's pairs, from the benchmark's generator: a degree
    48/47 pair sharing the zero i, and a degree 64/63 generic pair whose
    Psi_1 has the top coefficient PRIME, so P1 and Q1 lose theirs mod PRIME."""
    where = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", where)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(gen)
    if name == "shared-zero-48":
        pair = gen.shared_zero_pair(random.Random(3), 48, 47, 6, True, 1, 1)
    else:
        pair = gen.generic_pair(random.Random(5), 64, 63, 6, True, 1)
        pair.psi1[-1] = gen.q_real(symbol.PRIME)
    return ProblemSpec.from_json(gen.problem_json(pair, ["decide"]))


@pytest.mark.parametrize("name", ["shared-zero-48", "prime-top-64"])
def test_decide_size_criteria_within_two_seconds(name):
    # an exact Euclid over Q(i) took minutes on these pairs; the modular
    # gcd takes milliseconds
    spec = _benchmark_pair(name)
    start = time.perf_counter()
    v = decide(spec.psi1, spec.psi2, spec.a)
    assert time.perf_counter() - start < 2
    if name == "shared-zero-48":
        assert v.outcome == OUTCOME_COMMON and v.diagnostics["certificate"] is None
        assert v.diagnostics["gcd"] == [{"re": "0", "im": "1"}, "1"]
    else:  # the next prime p = 1 (mod 4) and 5^((p-1)/4)
        assert v.outcome == OUTCOME_NO_COMMON
        assert v.diagnostics["certificate"] == {"p": 1073741857, "sqrt_m1": 735529907}


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
        assert v.outcome in (OUTCOME_NO_COMMON, OUTCOME_COMMON, OUTCOME_COINCIDE)


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

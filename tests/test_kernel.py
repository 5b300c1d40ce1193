from dataclasses import replace
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest

from bezoutiant.exact import GR, MPoly, Poly
from bezoutiant.kernel import (
    ZeroMassError,
    adjoint_apply_to_one,
    build_kernel,
    build_m_functions,
    check_adjoint_identity,
    check_diagonal_continuity,
    normalize_pair,
)
from bezoutiant.operator_lab import Grid, discretize_all
from conftest import random_admissible_poly, t_from_generators

ONE = Poly.of(1)
TWO_T = Poly.of(0, 2)


def test_normalize_examples():
    pair = normalize_pair(ONE, ONE, 1)
    assert pair.psi1 == ONE and pair.r1 == GR(1)
    pair = normalize_pair(Poly.of(0, 1), ONE, 1)
    assert pair.psi1 == TWO_T and pair.r1 == GR(F(1, 2))
    with pytest.raises(ZeroMassError):
        normalize_pair(Poly.of(F(-1, 2), 1), ONE, 1)
    for a in (0, -1, F(-1, 2)):
        with pytest.raises(ValueError, match="positive"):
            normalize_pair(ONE, ONE, a)


def test_m_functions_coincidence():
    pair = normalize_pair(ONE, ONE, 1)
    mf = build_m_functions(pair)
    assert mf.phi1 == Poly.of(1, -1)
    assert mf.m2.is_zero


def test_m_functions_fixture():
    pair = normalize_pair(ONE, TWO_T, 1)
    mf = build_m_functions(pair)
    assert mf.phi1 == Poly.of(1, -1)
    assert mf.phi2 == Poly.of(1, 0, -1)
    assert mf.m2 == Poly.of(0, 1, -1)


def test_m_functions_defining_relation(rng):
    for _ in range(10):
        pair = normalize_pair(
            random_admissible_poly(rng, rng.randint(0, 4), 1),
            random_admissible_poly(rng, rng.randint(0, 4), 1),
            1,
        )
        mf = build_m_functions(pair)
        x = GR(F(3, 7))
        # s M_2 = Phi_2 + conj Phi_1(a - x) - 1 at s = conj(alpha) + beta = 1
        assert mf.m2(x) == mf.phi2(x) + mf.phi1.reflect(pair.a)(x) - GR(1)
        # Phi boundary values under normalization
        assert mf.phi1(0) == GR(1) and mf.phi1(pair.a) == GR(0)
        assert mf.phi2(0) == GR(1) and mf.phi2(pair.a) == GR(0)


def test_kernel_coincidence_vanishes():
    pair = normalize_pair(ONE, ONE, 1)
    k = build_kernel(pair)
    assert k.u_lower.is_zero and k.u_upper.is_zero


def test_kernel_fixture():
    pair = normalize_pair(ONE, TWO_T, 1)
    k = build_kernel(pair)
    assert k.u_lower == MPoly({(1, 0): -2, (1, 1): 2})  # -2x(1-t)
    assert k.u_upper == MPoly({(0, 1): -2, (1, 1): 2})  # -2t(1-x)
    assert k.c == GR(-1)
    # diagonal value -2x(1-x)
    assert k.u_at(F(1, 4), F(1, 4)) == GR(F(-2, 4) * F(3, 4))


def test_diagonal_continuity(rng):
    for _ in range(10):
        pair = normalize_pair(
            random_admissible_poly(rng, rng.randint(0, 5), 1),
            random_admissible_poly(rng, rng.randint(0, 5), 1),
            F(rng.randint(1, 3)),
        )
        assert check_diagonal_continuity(build_kernel(pair))


def test_adjoint_identity_fixture():
    pair = normalize_pair(ONE, TWO_T, 1)
    k = build_kernel(pair)
    mf = build_m_functions(pair)
    assert adjoint_apply_to_one(k) == Poly.of(0, 1, -1)  # x(1-x)
    assert check_adjoint_identity(k, mf)


def test_exact_checks_reject_a_perturbed_coefficient(rng):
    # one real or imaginary coefficient of either piece, moved by 1/7
    for a in (1, F(7, 3)):
        pair = normalize_pair(random_admissible_poly(rng, 3, a),
                              random_admissible_poly(rng, 2, a), a)
        k, mf = build_kernel(pair), build_m_functions(pair)
        assert check_adjoint_identity(k, mf) and check_diagonal_continuity(k)
        for piece in ("u_lower", "u_upper"):
            terms = dict(getattr(k, piece).terms)
            exp = rng.choice(sorted(terms))
            for delta in (GR(F(1, 7)), GR(0, F(1, 7))):
                bad = replace(k, **{piece: MPoly({**terms, exp: terms[exp] + delta})})
                assert not check_adjoint_identity(bad, mf), (piece, exp, delta)
                assert not check_diagonal_continuity(bad), (piece, exp, delta)


def test_adjoint_identity_random(rng):
    for _ in range(20):
        pair = normalize_pair(
            random_admissible_poly(rng, rng.randint(0, 6), 1),
            random_admissible_poly(rng, rng.randint(0, 6), 1),
            1,
        )
        k = build_kernel(pair)
        mf = build_m_functions(pair)
        assert check_adjoint_identity(k, mf)


def test_coincidence_law_reflected_pairs(rng):
    # any psi2 with psi1 = conj(psi2(a - x)) collapses the kernel
    for _ in range(8):
        psi2 = random_admissible_poly(rng, rng.randint(0, 4), 1)
        psi1 = psi2.reflect(1)
        if not psi1.integral(0, 1):
            continue
        pair = normalize_pair(psi1, psi2, 1)
        k = build_kernel(pair)
        assert k.u_lower.is_zero and k.u_upper.is_zero


def _kernel_values(pair, grid):
    """(k, U(x_i, x_j) on the grid's nodes): the Nystrom matrix of T that the
    operator check's generators imply, with c w_j divided out."""
    k = build_kernel(pair)
    ops = discretize_all(pair, k, build_m_functions(pair), grid)
    return k, t_from_generators(ops) / (complex(k.c) * grid.weights)


def test_kernel_matrix_matches_u_float(rng):
    # nodes at 0 and a, and repeated ones, put entries on and next to x == t
    nodes = np.sort(np.concatenate([np.linspace(0, 1, 13), [0.3, 0.7, 0.7]]))
    weights = np.linspace(0.5, 1.5, nodes.size) / nodes.size
    for a in (1, F(7, 3)):
        grid = Grid(nodes * float(a), weights * float(a), float(a))
        for _ in range(3):
            k, got = _kernel_values(normalize_pair(random_admissible_poly(rng, rng.randint(0, 8), a),
                                                   random_admissible_poly(rng, rng.randint(0, 8), a), a),
                                    grid)
            want = k.u_float(grid.nodes[:, None], grid.nodes[None, :])
            assert got.shape == (16, 16)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _errors_against_exact(pair, grid, samples):
    """Max |U - u_at| over sampled (i, j) of the generator and Horner forms."""
    nodes = grid.nodes
    k, generators = _kernel_values(pair, grid)
    horner = k.u_float(nodes[:, None], nodes[None, :])
    exact = np.array([complex(k.u_at(F(nodes[i]), F(nodes[j]))) for i, j in samples])
    rows, cols = np.array(samples).T
    return (np.max(np.abs(generators[rows, cols] - exact)),
            np.max(np.abs(horner[rows, cols] - exact)), np.max(np.abs(generators)))


def test_kernel_matrix_matches_exact_kernel(rng):
    # both triangles and the diagonal, where T takes the upper piece
    grid = Grid.uniform(64, 1)  # dyadic nodes, so u_at sees the same points
    samples = [(i, j) for i in range(3, 64, 12) for j in range(5, 64, 17)] + [(i, i) for i in range(0, 64, 9)]
    for d1, d2 in ((0, 1), (3, 5), (8, 6), (8, 8)):
        err, _, scale = _errors_against_exact(normalize_pair(random_admissible_poly(rng, d1, 1),
                                                             random_admissible_poly(rng, d2, 1), 1),
                                              grid, samples)
        assert err <= 1e-12 * scale, (d1, d2, err / scale)


def test_kernel_matrix_error_at_high_degree(rng):
    # degree 16/16: in x and t both evaluation orders lost digits to
    # cancellation (5e-12 to 6e-11 of the largest entry); in the centered
    # variables the generator form keeps 1e-12 of it, as Horner's does
    grid = Grid.uniform(64, 1)
    samples = [(i, j) for i in range(3, 64, 20) for j in range(1, 64, 21)]
    err, horner_err, scale = _errors_against_exact(
        normalize_pair(random_admissible_poly(rng, 16, 1), random_admissible_poly(rng, 16, 1), 1),
        grid, samples)
    assert err <= 1e-12 * scale and horner_err <= 1e-12 * scale, (err / scale, horner_err / scale)


def test_kernel_json():
    pair = normalize_pair(ONE, TWO_T, 1)
    k = build_kernel(pair)
    d = k.to_json()
    assert d["c"] == "-1"
    assert d["a"] == "1"


def test_kernel_tables_match_their_terms(rng):
    # the JSON read off the integer tables equals that of the
    # GaussianRational terms built from them
    for _ in range(12):
        a = rng.choice((1, F(7, 3), F(1, 2)))
        psi1, psi2 = (random_admissible_poly(rng, rng.randint(0, 8), a, rng.random() < 0.7)
                      for _ in range(2))
        k = build_kernel(normalize_pair(psi1, psi2, a))
        d = k.to_json()
        for name in ("u_lower", "u_upper"):
            terms = getattr(k, name).terms
            assert d[name] == [{"exp": list(e), "coeff": c.to_json()} for e, c in sorted(terms.items())]


def test_float_pieces_are_the_centered_coefficients(rng):
    # with x = h (xi + 1), h = a / 2, the xi^r tau^s coefficient is
    # sum_{i >= r, j >= s} C[i, j] h^(i+j) C(i, r) C(j, s), here in Fractions;
    # each float must be that value correctly rounded, bit for bit, on the
    # nonzero extent of the piece
    for a in (1, F(7, 3), F(1, 2), 40) * 3:
        psi1, psi2 = (random_admissible_poly(rng, rng.randint(0, 8), a, rng.random() < 0.7)
                      for _ in range(2))
        k = build_kernel(normalize_pair(psi1, psi2, a))
        h = F(a) / 2
        for piece, floats in zip((k.u_lower, k.u_upper), k.float_pieces):
            terms = piece.terms
            want = np.zeros((1 + max((i for i, _ in terms), default=0),
                             1 + max((j for _, j in terms), default=0)), dtype=complex)
            for r, s in np.ndindex(want.shape):
                parts = [sum((getattr(c, part) * h ** (i + j) * comb(i, r) * comb(j, s)
                              for (i, j), c in terms.items() if i >= r and j >= s), F(0))
                         for part in ("re", "im")]
                want[r, s] = complex(*map(float, parts))
            assert floats.shape == want.shape and floats.tobytes() == want.tobytes()


def test_m_function_table_is_the_centered_coefficients(rng):
    # with x = h (xi + 1), h = a / 2, the xi^r coefficient of p is
    # sum_{k >= r} c_k h^k C(k, r), here in Fractions; each float must be
    # that value correctly rounded (equal as floats: a negated zero is -0.0),
    # and M_2(a - x) is M_2 at -xi
    for a in (1, F(7, 3), F(1, 2), 40, F(10) ** 200) * 2:
        psi1, psi2 = (random_admissible_poly(rng, rng.randint(0, 8), a, rng.random() < 0.7)
                      for _ in range(2))
        mf = build_m_functions(normalize_pair(psi1, psi2, a))
        h = F(a) / 2
        want = np.zeros(mf.float_table.shape, dtype=complex)
        for col, (poly, sign) in enumerate(((mf.phi1, 1), (mf.phi2, 1), (mf.m2, 1), (mf.m2, -1))):
            cs = poly.coeffs
            for r in range(len(want)):
                parts = [sum((getattr(c, part) * h ** k * comb(k, r)
                              for k, c in enumerate(cs) if k >= r), F(0)) * sign ** r
                         for part in ("re", "im")]
                want[r, col] = complex(*map(float, parts))
        assert np.array_equal(mf.float_table, want)

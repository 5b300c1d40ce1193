from dataclasses import replace
from fractions import Fraction as F

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
from bezoutiant.operator_lab import Grid, kernel_matrix
from conftest import random_admissible_poly

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


def _kernel_values(k, grid):
    """U(x_i, x_j) on the grid's nodes: the Nystrom matrix of T with c w_j divided out."""
    return kernel_matrix(k, grid) / (complex(k.c) * grid.weights)


def test_kernel_matrix_matches_u_float(rng):
    # nodes at 0 and a, and repeated ones, put entries on and next to x == t
    nodes = np.sort(np.concatenate([np.linspace(0, 1, 13), [0.3, 0.7, 0.7]]))
    weights = np.linspace(0.5, 1.5, nodes.size) / nodes.size
    for a in (1, F(7, 3)):
        grid = Grid(nodes * float(a), weights * float(a), float(a))
        for _ in range(3):
            k = build_kernel(normalize_pair(random_admissible_poly(rng, rng.randint(0, 8), a),
                                            random_admissible_poly(rng, rng.randint(0, 8), a), a))
            got = _kernel_values(k, grid)
            want = k.u_float(grid.nodes[:, None], grid.nodes[None, :])
            assert got.shape == (16, 16)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _errors_against_exact(k, grid, samples):
    """Max |U - u_at| over sampled (i, j) of the row-block and Horner forms."""
    nodes = grid.nodes
    blocks = _kernel_values(k, grid)
    horner = k.u_float(nodes[:, None], nodes[None, :])
    exact = np.array([complex(k.u_at(F(nodes[i]), F(nodes[j]))) for i, j in samples])
    rows, cols = np.array(samples).T
    return (np.max(np.abs(blocks[rows, cols] - exact)),
            np.max(np.abs(horner[rows, cols] - exact)), np.max(np.abs(blocks)))


def test_kernel_matrix_matches_exact_kernel(rng):
    grid = Grid.uniform(64, 1)  # dyadic nodes, so u_at sees the same points
    samples = [(i, j) for i in range(3, 64, 12) for j in range(5, 64, 17)]
    for d1, d2 in ((0, 1), (3, 5), (8, 6), (8, 8)):
        k = build_kernel(normalize_pair(random_admissible_poly(rng, d1, 1),
                                        random_admissible_poly(rng, d2, 1), 1))
        err, _, scale = _errors_against_exact(k, grid, samples)
        assert err <= 1e-12 * scale, (d1, d2, err / scale)


def test_kernel_matrix_error_at_high_degree(rng):
    # degree 16/16 loses digits to cancellation in either evaluation order;
    # the row-block form may not lose many more than Horner's
    grid = Grid.uniform(64, 1)
    samples = [(i, j) for i in range(3, 64, 20) for j in range(1, 64, 21)]
    k = build_kernel(normalize_pair(random_admissible_poly(rng, 16, 1),
                                    random_admissible_poly(rng, 16, 1), 1))
    err, horner_err, _ = _errors_against_exact(k, grid, samples)
    assert err <= 2 * horner_err


def test_kernel_json():
    pair = normalize_pair(ONE, TWO_T, 1)
    k = build_kernel(pair)
    d = k.to_json()
    assert d["c"] == "-1"
    assert d["a"] == "1"


def test_kernel_tables_match_their_terms(rng):
    # the JSON and floats read off the integer tables equal those of the
    # GaussianRational terms built from them, bit for bit
    for _ in range(12):
        a = rng.choice((1, F(7, 3), F(1, 2)))
        psi1, psi2 = (random_admissible_poly(rng, rng.randint(0, 8), a, rng.random() < 0.7)
                      for _ in range(2))
        k = build_kernel(normalize_pair(psi1, psi2, a))
        d = k.to_json()
        for name, floats in zip(("u_lower", "u_upper"), k.float_pieces):
            terms = getattr(k, name).terms
            assert d[name] == [{"exp": list(e), "coeff": c.to_json()} for e, c in sorted(terms.items())]
            want = np.zeros((1 + max((i for i, _ in terms), default=0),
                             1 + max((j for _, j in terms), default=0)), dtype=complex)
            for (i, j), c in terms.items():
                want[i, j] = complex(c)
            assert floats.shape == want.shape and floats.tobytes() == want.tobytes()

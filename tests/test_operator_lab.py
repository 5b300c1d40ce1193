import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from bezoutiant import operator_lab
from bezoutiant.exact import Poly
from bezoutiant.kernel import (
    build_kernel,
    build_m_functions,
    normalize_pair,
)
from bezoutiant.operator_lab import (
    Grid,
    convergence_study,
    discretize_all,
    identity_residual,
    kernel_matrix,
)
from conftest import random_admissible_poly

ONE = Poly.of(1)
TWO_T = Poly.of(0, 2)


def _setup(psi1, psi2, a=1):
    pair = normalize_pair(psi1, psi2, a)
    return pair, build_kernel(pair), build_m_functions(pair)


def _random_grid(n, a, seed):
    """Sorted random nodes in (0, a) with random positive weights."""
    gen, a = np.random.default_rng(seed), float(a)
    return Grid(np.sort(gen.uniform(0, a, n)), gen.uniform(0.2, 2.0, n) * a / n, a)


def _adjoint(m, grid):
    """L^2(0,a) adjoint of a Nystrom matrix: W^{-1} M^H W."""
    w = grid.weights
    return (m.conj().T * w[None, :]) / w[:, None]


def _dense_residual(pair, mf, grid, t_mat):
    """Reference: every operator as a dense matrix, two complex n^3 products."""
    n, w, x = grid.n, grid.weights, grid.nodes
    a_mat = 1j * (np.tril(np.ones((n, n)), -1) * w[None, :] + np.diag(w) * 0.5)
    ones = np.ones(n, dtype=complex)
    b1, b2 = (a_mat + np.outer(ones, -1j * w * np.conj(np.asarray(phi.eval_float(x), complex)))
              for phi in (mf.phi1, mf.phi2))
    m2 = np.asarray(mf.m2.eval_float(x), complex)
    n2 = -1j * m2
    n1 = np.conj(np.asarray(mf.m2.eval_float(float(pair.a) - x), complex))
    res = t_mat @ b1 - _adjoint(b2, grid) @ t_mat - np.outer(n2, w * np.conj(n1))
    return float(np.linalg.norm(res, "fro"))


def test_grid_uniform():
    g = Grid.uniform(8, 2)
    assert g.n == 8
    assert abs(g.weights.sum() - 2.0) < 1e-15
    assert 0 < g.nodes[0] and g.nodes[-1] < 2
    assert abs(g.nodes[0] - 0.125) < 1e-15


def test_cumulative_operator_on_constants():
    # midpoint nodes make A applied to 1 exactly i*x at the nodes; the
    # structured form reads it off the suffix sums: A 1 = i (a - S(w) + w / 2)
    g = Grid.uniform(16, 1)
    for axis, w in ((0, g.weights), (1, np.tile(g.weights, (3, 1)))):
        suffix = np.flip(np.cumsum(np.flip(w, axis), axis=axis), axis)
        got = 1j * (g.a - suffix + w / 2)
        assert np.max(np.abs(got - 1j * g.nodes)) < 1e-14


def test_adjoint_applied_to_one_matches_exact():
    # T* 1 = conj(M2(a - x)); the Nystrom adjoint reproduces it to O(h^2)
    pair, k, mf = _setup(ONE, TWO_T)
    exact = mf.m2.reflect(pair.a)
    errs = []
    for n in (32, 64):
        g = Grid.uniform(n, 1)
        ops = discretize_all(pair, k, mf, g)
        got = _adjoint(ops.t, g) @ np.ones(g.n)
        want = np.asarray(exact.eval_float(g.nodes), dtype=complex)
        errs.append(np.max(np.abs(got - want)))
    assert errs[0] < 1e-2
    assert errs[0] / errs[1] > 3.0


def test_coincidence_discretization_is_zero():
    pair, k, mf = _setup(ONE, ONE)
    for g in (Grid.uniform(32, 1), _random_grid(33, 1, seed=7)):
        ops = discretize_all(pair, k, mf, g)
        assert np.all(ops.t == 0)
        assert identity_residual(ops) == 0.0


def test_identity_residual_decay():
    pair, k, mf = _setup(ONE, TWO_T)
    study = convergence_study(pair, k, mf, sizes=(32, 64, 128, 256))
    assert all(r2 < r1 for r1, r2 in zip(study["residuals"], study["residuals"][1:]))
    for ratio in study["ratios"]:
        assert 3.2 <= ratio <= 4.8


def test_identity_residual_decay_random(rng):
    psi1 = random_admissible_poly(rng, 3, 1)
    psi2 = random_admissible_poly(rng, 2, 1)
    pair, k, mf = _setup(psi1, psi2)
    study = convergence_study(pair, k, mf, sizes=(32, 64, 128))
    for ratio in study["ratios"]:
        assert 3.2 <= ratio <= 4.8


def test_identity_holds_for_every_parameter_choice():
    # every admissible (alpha, beta) scales the residual by 1/|s|,
    # s = conj(alpha) + beta (kernel module doc), so s = 1 stands for all:
    # the discretization error must vanish at order 2
    pair, k, mf = _setup(ONE, TWO_T, 1)
    coarse = identity_residual(discretize_all(pair, k, mf, Grid.uniform(48, 1)))
    fine = identity_residual(discretize_all(pair, k, mf, Grid.uniform(96, 1)))
    assert coarse < 1e-3
    assert coarse / fine > 3.0


def test_structured_residual_matches_dense(rng):
    # same float64 T on both sides: only the assembly of the residual differs
    for a in (1, F(7, 3), 1, F(7, 3)):
        psi1 = random_admissible_poly(rng, rng.randint(0, 8), a)
        psi2 = random_admissible_poly(rng, rng.randint(0, 8), a)
        pair, k, mf = _setup(psi1, psi2, a)
        for n in (16, 33, 64, 100):
            for g in (Grid.uniform(n, a), _random_grid(n, a, seed=n)):
                ops = discretize_all(pair, k, mf, g)
                want = _dense_residual(pair, mf, g, ops.t)
                got = identity_residual(ops)
                assert abs(got - want) <= 1e-11 * want, (n, got, want)


def test_discretize_all_vectors_match_per_polynomial_horner(rng):
    # one Horner pass over a zero-padded table, equal bit for bit to each
    # polynomial evaluated alone; unequal degrees and a constant density
    # leave rows of padding
    cases = [(random_admissible_poly(rng, 7, 1), random_admissible_poly(rng, 2, 1), 1),
             (ONE, random_admissible_poly(rng, 5, F(7, 3)), F(7, 3)),
             (random_admissible_poly(rng, 4, 1), ONE, 1)]
    for psi1, psi2, a in cases:
        pair, k, mf = _setup(psi1, psi2, a)
        for g in (Grid.uniform(33, a), _random_grid(40, a, seed=3)):
            ops = discretize_all(pair, k, mf, g)
            w, x = g.weights, g.nodes
            assert np.array_equal(ops.row1, -1j * w * np.conj(mf.phi1.eval_float(x)))
            assert np.array_equal(ops.row2, -1j * w * np.conj(mf.phi2.eval_float(x)))
            assert np.array_equal(ops.n2, -1j * mf.m2.eval_float(x))
            assert np.array_equal(ops.n1, np.conj(mf.m2.eval_float(float(pair.a) - x)))


@pytest.mark.parametrize("block", [1, 7, 64, 512])
def test_row_block_size_leaves_results_unchanged(rng, monkeypatch, block):
    # a partial block reuses the first rows of full-size buffers: a stale
    # row left there would show up as a block-size dependence
    pair, k, mf = _setup(random_admissible_poly(rng, 6, 1), random_admissible_poly(rng, 4, 1))
    for n in (33, 100, 257):
        g = Grid.uniform(n, 1)
        ops = discretize_all(pair, k, mf, g)
        want = identity_residual(ops)
        with monkeypatch.context() as m:
            m.setattr(operator_lab, "_BLOCK", block)
            got = identity_residual(ops)
            t = kernel_matrix(k, g)
        assert abs(got - want) <= 1e-12 * want, (block, n)
        u = complex(k.c) * k.u_float(g.nodes[:, None], g.nodes[None, :]) * g.weights
        assert np.max(np.abs(t - u)) <= 1e-12 * np.max(np.abs(u)), (block, n)


def test_kernel_matrix_shape_and_scaling():
    pair, k, mf = _setup(ONE, TWO_T)
    g = Grid.uniform(10, 1)
    m = kernel_matrix(k, g)
    assert m.shape == (10, 10)
    x, t = g.nodes[3], g.nodes[7]
    assert abs(m[3, 7] - complex(k.c) * k.u_float(x, t) * g.weights[7]) < 1e-15


def test_kernel_matrix_matches_u_float_on_row_blocks(rng):
    # sizes below, at and off multiples of the 32-row block
    for a in (1, F(7, 3)):
        pair, k, mf = _setup(random_admissible_poly(rng, 6, a), random_admissible_poly(rng, 4, a), a)
        for n in (16, 33, 100, 257):
            for g in (Grid.uniform(n, a), _random_grid(n, a, seed=n)):
                want = complex(k.c) * k.u_float(g.nodes[:, None], g.nodes[None, :]) * g.weights
                got = kernel_matrix(k, g)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (n, a)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_block_memory(rng):
    # no n x n temporary besides T itself
    pair, k, mf = _setup(random_admissible_poly(rng, 8, 1), random_admissible_poly(rng, 6, 1))
    g = Grid.uniform(256, 1)
    ops = discretize_all(pair, k, mf, g)
    assert _traced_peak(lambda: identity_residual(ops)) < ops.t.nbytes
    assert _traced_peak(lambda: kernel_matrix(k, g)) < 1.5 * ops.t.nbytes

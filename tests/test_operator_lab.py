import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from bezoutiant import cli, operator_lab
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
)
from conftest import (complex_of, eval_complex, fractions_of, random_admissible_poly,
                      t_from_generators)

ONE = Poly.of(1)
TWO_T = Poly.of(0, 2)


def _scaled(p, a):
    """p(t / a): coefficient k divided by a^k."""
    return Poly.of(*((x / a ** k, y / a ** k) for k, (x, y) in enumerate(fractions_of(p.triple))))


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
    """Every operator as a dense matrix, two complex n^3 products."""
    n, w, x = grid.n, grid.weights, grid.nodes
    a_mat = 1j * (np.tril(np.ones((n, n)), -1) * w[None, :] + np.diag(w) * 0.5)
    ones = np.ones(n, dtype=complex)
    b1, b2 = (a_mat + np.outer(ones, -1j * w * np.conj(eval_complex(phi, x)))
              for phi in (mf.phi1, mf.phi2))
    n2 = -1j * eval_complex(mf.m2, x)
    n1 = np.conj(eval_complex(mf.m2, float(pair.a) - x))
    res = t_mat @ b1 - _adjoint(b2, grid) @ t_mat - np.outer(n2, w * np.conj(n1))
    return float(np.linalg.norm(res, "fro"))


#: Fractional bits of the fixed-point reference below: 2^-200 is about 6e-61.
_K = 200


class _Fixed:
    """Complex fixed-point arrays: the value is (re + i im) / 2^_K, with re
    and im numpy arrays of Python integers.  Sums are exact; a product is
    rounded down to _K bits."""

    def __init__(self, re, im):
        self.re, self.im = re, im

    @classmethod
    def of(cls, values):
        """A list, or a list of rows, of rationals, floats or exact scalar
        triples (re, im, den), rounded down to _K bits."""
        def fix(v):
            v = F(v)
            return (v.numerator << _K) // v.denominator

        def parts(v):
            return (fix(F(v[0], v[2])), fix(F(v[1], v[2]))) if isinstance(v, tuple) else (fix(v), 0)
        rows = values if isinstance(values[0], list) else [values]
        pairs = np.array([[parts(v) for v in row] for row in rows], dtype=object)
        shape = (len(rows), len(rows[0])) if rows is values else (len(values),)
        return cls(pairs[..., 0].reshape(shape), pairs[..., 1].reshape(shape))

    def __add__(self, other):
        return _Fixed(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _Fixed(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return _Fixed(-self.re, -self.im)

    def __mul__(self, other):
        return _Fixed((self.re * other.re - self.im * other.im) >> _K,
                      (self.re * other.im + self.im * other.re) >> _K)

    def __getitem__(self, key):
        return _Fixed(self.re[key], self.im[key])

    def scale(self, real):
        """Times a real fixed-point integer array."""
        return _Fixed((self.re * real) >> _K, (self.im * real) >> _K)

    def times_i(self):
        return _Fixed(-self.im, self.re)

    def conj(self):
        return _Fixed(self.re, -self.im)

    def half(self):
        return _Fixed(self.re >> 1, self.im >> 1)

    def reshape(self, *shape):
        return _Fixed(self.re.reshape(shape), self.im.reshape(shape))

    def sum(self, axis):
        return _Fixed(self.re.sum(axis=axis), self.im.sum(axis=axis))

    def suffix_sums(self, axis):
        """S_j = sum_{k >= j} along `axis`."""
        def suffix(v):
            return np.flip(np.cumsum(np.flip(v, axis), axis=axis), axis)
        return _Fixed(suffix(self.re), suffix(self.im))


def _reference_residual(pair, k, mf, grid):
    """||T B_1 - B_2* T - N_2 N_1*||_F in fixed point at 2^-200, at the float
    nodes and weights taken exactly.

    T[i, j] = c U(x_i, x_j) w_j from the exact kernel tables, U_lower for
    j > i.  The products with the triangular A are the sums they stand for,
    (T A)[i, j] = i w_j (S_j(T[i, :]) - T[i, j] / 2) and
    (A* T)[i, j] = -i (S_i(w T[:, j]) - w_i T[i, j] / 2), which hold exactly
    in integers; W^{-1} conj(r_2) = i Phi_2(x).  Only products round.
    """
    n, a = grid.n, pair.a
    nodes, weights = [F(v) for v in grid.nodes], [F(v) for v in grid.weights]
    assert all((v * 2 ** _K).denominator == 1 for v in nodes + weights)
    xs, ws = _Fixed.of(nodes), _Fixed.of(weights)
    values = []
    for piece in (k.u_lower, k.u_upper):
        re, im, den = piece.table
        coeff = _Fixed.of([[(r, m, den) for r, m in zip(*rows)] for rows in zip(re, im)])
        acc = None  # Horner in x over rows, each row a polynomial in t
        for row in range(len(re) - 1, -1, -1):
            in_t = coeff[row:row + 1, -1:]
            for col in range(len(re[0]) - 2, -1, -1):
                in_t = in_t.scale(xs.re[None, :]) + coeff[row:row + 1, col:col + 1]
            acc = in_t if acc is None else acc.scale(xs.re[:, None]) + in_t
        values.append(acc)
    above = np.triu(np.ones((n, n), dtype=bool), 1)
    u = _Fixed(*(np.where(above, *np.broadcast_arrays(lo, up))
                 for lo, up in ((values[0].re, values[1].re), (values[0].im, values[1].im))))
    t = (u * _Fixed.of([[k.c]])).scale(ws.re[None, :])
    wt_mat = t.scale(ws.re[:, None])

    phi1, phi2, m2, m2_reflected = (_Fixed.of([poly(v) for v in vals]) for poly, vals in (
        (mf.phi1, nodes), (mf.phi2, nodes), (mf.m2, nodes), (mf.m2, [a - v for v in nodes])))
    ta = (t.suffix_sums(1) - t.half()).scale(ws.re[None, :]).times_i()
    adjoint_a_t = -(wt_mat.suffix_sums(0) - wt_mat.half()).times_i()
    row1 = -phi1.conj().scale(ws.re).times_i()  # r_1 = -i w conj(Phi_1)
    n2 = -m2.times_i()  # n_2 = -i M_2(x); w conj(n_1) = w M_2(a - x)
    t1, wt = t.sum(1), wt_mat.sum(0)

    def outer(u, v):
        return u.reshape(n, 1) * v.reshape(1, n)

    res = (ta + outer(t1, row1) - adjoint_a_t - outer(phi2.times_i(), wt)
           - outer(n2, m2_reflected.scale(ws.re)))
    return isqrt(int((res.re * res.re + res.im * res.im).sum())) / 2 ** _K


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
        got = _adjoint(t_from_generators(ops), g) @ np.ones(g.n)
        want = eval_complex(exact, g.nodes)
        errs.append(np.max(np.abs(got - want)))
    assert errs[0] < 1e-2
    assert errs[0] / errs[1] > 3.0


def test_coincidence_discretization_is_zero():
    pair, k, mf = _setup(ONE, ONE)
    for g in (Grid.uniform(32, 1), _random_grid(33, 1, seed=7)):
        ops = discretize_all(pair, k, mf, g)
        assert not np.any(ops.t_lower[0]) and not np.any(ops.t_upper[0])
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
    # against the dense formula in fixed point at 2^-200, at the same nodes
    # and weights: the float64 dense form itself is up to 1.9e-11 off it.
    # The literal matrix products in float64 check the reference's algebra.
    for a in (1, F(7, 3), 1, F(7, 3)):
        psi1 = random_admissible_poly(rng, rng.randint(0, 8), a)
        psi2 = random_admissible_poly(rng, rng.randint(0, 8), a)
        pair, k, mf = _setup(psi1, psi2, a)
        for n in (16, 33, 64, 100):
            for g in (Grid.uniform(n, a), _random_grid(n, a, seed=n)):
                want = _reference_residual(pair, k, mf, g)
                ops = discretize_all(pair, k, mf, g)
                got = identity_residual(ops)
                assert abs(got - want) <= 1e-11 * want, (n, got, want)
                dense = _dense_residual(pair, mf, g, t_from_generators(ops))
                assert abs(dense - want) <= 1e-10 * want, (n, dense, want)


def test_residual_scales_with_the_interval():
    # the same density shapes on [0, a]: the residual is a times that on
    # [0, 1], where a power-of-two a scales every float exactly; with the
    # weights themselves in the generators, w^2 is subnormal at a = 2^-510
    # and the residual lost six digits
    psi1, psi2 = Poly.of(1, 2), Poly.of(3, -1)
    base = convergence_study(*_setup(psi1, psi2), sizes=(32, 64))["residuals"]
    for a in (F(1, 2 ** 510), F(2) ** 500):
        pair, k, mf = _setup(_scaled(psi1, a), _scaled(psi2, a), a)
        got = convergence_study(pair, k, mf, sizes=(32, 64))["residuals"]
        for g, b in zip(got, base):
            assert abs(g - float(a) * b) <= 1e-12 * float(a) * b, (a, g, b)


def test_discretize_all_vectors_match_exact_values(rng):
    # Phi_1, Phi_2, M_2(x) and M_2(a - x) as the residual's generators hold
    # them, against Poly.__call__ at the float nodes taken as Fractions:
    # within a few ulps of the largest value, for every a.  Evaluated in x,
    # Phi_2's coefficients of size a^-k lost whole terms at a = 1e200.
    eps = 2.0 ** -52
    for a in (1, F(7, 3), F(1, 3), 40, F(10) ** 200) * 3:
        a = F(a)
        psi1, psi2 = (_scaled(random_admissible_poly(rng, rng.randint(0, 8), 1), a)
                      for _ in range(2))
        pair, k, mf = _setup(psi1, psi2, a)
        for g in (Grid.uniform(33, a), _random_grid(40, a, seed=3)):
            ops = discretize_all(pair, k, mf, g)
            (xl, yl), (xu, _) = ops.r_lower, ops.r_upper
            v = g.weights / g.a
            nodes = [F(x) for x in g.nodes]
            for got, poly, at, conj in ((-xu[:, -2], mf.phi2, nodes, False),
                                        (xl[:, -1], mf.m2, nodes, False),
                                        (yl[:, -2] / v, mf.phi1, nodes, True),
                                        (yl[:, -1] / v, mf.m2, [a - x for x in nodes], False)):
                want = np.array([complex_of(poly(x)) for x in at])
                want = want.conj() if conj else want
                bound = 8 * eps * np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= bound, (a, poly)


@pytest.mark.parametrize("a", [F(10) ** 200, F(15) * F(10) ** 307])
def test_operator_check_at_extreme_intervals(a):
    # Psi_1 = 1, Psi_2 = 1 + t: in x, Phi_2's t^2 coefficient (about 1e-400
    # at a = 1e200) rounded to 0.0 and the ratio read 0.9992
    pair, k, mf = _setup(ONE, Poly.of(1, 1), a)
    study = convergence_study(pair, k, mf, sizes=(32, 64, 128))
    assert all(3.2 <= r <= 4.8 for r in study["ratios"]), study


@pytest.mark.parametrize("block", [1, 7, 64, 512])
def test_row_block_size_leaves_results_unchanged(rng, monkeypatch, block):
    # a partial block reuses the first rows of full-size buffers, and the
    # diagonal block mixes both products: a stale row or a wrong triangle
    # would show up as a block-size dependence
    pair, k, mf = _setup(random_admissible_poly(rng, 6, 1), random_admissible_poly(rng, 4, 1))
    for n in (33, 100, 257):
        ops = discretize_all(pair, k, mf, Grid.uniform(n, 1))
        want = identity_residual(ops)
        with monkeypatch.context() as m:
            m.setattr(operator_lab, "_BLOCK", block)
            got = identity_residual(ops)
        assert abs(got - want) <= 1e-12 * want, (block, n)


def test_kernel_matrix_shape_and_scaling():
    pair, k, mf = _setup(ONE, TWO_T)
    g = Grid.uniform(10, 1)
    m = t_from_generators(discretize_all(pair, k, mf, g))
    assert m.shape == (10, 10)
    for i, j in ((3, 7), (7, 3), (5, 5)):
        x, t = g.nodes[i], g.nodes[j]
        assert abs(m[i, j] - complex(k.c) * k.u_float(x, t) * g.weights[j]) < 1e-15


def test_kernel_constant_scales_t_and_shares_the_grid_bases(rng):
    # build_kernel's c is -1, and no run varies it; c = 2 scales T to
    # 2 U(x_i, x_j) w_j, and kernels of other widths or constants read the
    # grid's one bases object
    g = Grid.uniform(64, 1)
    pair, k, mf = _setup(random_admissible_poly(rng, 6, 1), random_admissible_poly(rng, 4, 1))
    doubled = dataclasses.replace(k, c=2)
    want = 2 * k.u_float(g.nodes[:, None], g.nodes[None, :]) * g.weights
    got = t_from_generators(discretize_all(pair, doubled, mf, g))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    bases = g.bases(1)
    narrow, _, mf2 = _setup(ONE, TWO_T)
    discretize_all(narrow, build_kernel(narrow), mf2, g)
    discretize_all(pair, k, mf, g)
    assert g.bases(1) is bases


def test_kernel_matrix_matches_u_float_on_row_blocks(rng):
    # the generators' T against the Horner evaluation, on sizes below, at
    # and off multiples of the 32-row block
    for a in (1, F(7, 3)):
        pair, k, mf = _setup(random_admissible_poly(rng, 6, a), random_admissible_poly(rng, 4, a), a)
        for n in (16, 33, 100, 257):
            for g in (Grid.uniform(n, a), _random_grid(n, a, seed=n)):
                want = complex(k.c) * k.u_float(g.nodes[:, None], g.nodes[None, :]) * g.weights
                got = t_from_generators(discretize_all(pair, k, mf, g))
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (n, a)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_block_memory(rng):
    # no n x n array: at n = 4096 a dense complex T alone is 256 MiB
    pair, k, mf = _setup(random_admissible_poly(rng, 8, 1), random_admissible_poly(rng, 6, 1))
    g = Grid.uniform(4096, 1)
    k.float_pieces  # the exact tables are not the operator check's memory
    peak = _traced_peak(lambda: identity_residual(discretize_all(pair, k, mf, g)))
    assert peak < 32 * 2 ** 20, peak


def _bits(ops):
    """Every generator of a discretization as raw bytes."""
    return [x.tobytes() for part in (ops.t_lower, ops.t_upper, ops.r_lower, ops.r_upper) for x in part]


def test_memoized_grid_gives_a_fresh_grids_bits(rng):
    # a memoized grid's bases grow with the tables asked for, and may then be
    # wider than a problem needs (the random pairs again after the degree-16
    # one); each column is built alone, so generators and residuals equal a
    # fresh grid's bit for bit
    for a in (1, F(7, 3), 40):
        degrees = [(16, rng.randint(0, 16))] + [(rng.randint(0, 16), rng.randint(0, 16)) for _ in range(4)]
        problems = [_setup(random_admissible_poly(rng, d1, a), random_admissible_poly(rng, d2, a), a)
                    for d1, d2 in degrees]
        for n in (16, 33, 100, 257):
            g = Grid.uniform(n, a)
            for pair, k, mf in problems[1:] + problems:
                assert Grid.uniform(n, a) is g
                fresh = Grid(g.nodes.copy(), g.weights.copy(), g.a)
                got, want = discretize_all(pair, k, mf, g), discretize_all(pair, k, mf, fresh)
                assert _bits(got) == _bits(want), (a, n, pair.psi1.degree, pair.psi2.degree)
                assert identity_residual(got) == identity_residual(want)


_DEG16 = [[[k % 5 - 2, 1 - k % 3] for k in range(17)], [[3 - k % 4, k % 2] for k in range(10)]]
_DEG2 = [[[1, 0], [0, 1], [2, -1]], [[2, 1], [-1, 0]]]


def _state_call(kind, arg, out):
    """A convergence study of the pair `arg` (coefficient lists), or cli.run
    on cubic_vs_quadratic.json at grid_n `arg`, as JSON values (the report
    without its timing)."""
    if kind == "study":
        pair, k, mf = _setup(*(Poly.of(*map(tuple, c)) for c in arg))
        result = convergence_study(pair, k, mf, (32, 64, 128, 256))
    else:
        spec = Path(__file__).parent / "fixtures" / "cubic_vs_quadratic.json"
        result = cli.run(str(spec), out, tasks=("decide", "kernel", "operator-check"), grid_n=arg)
        del result[0]["provenance"]["timing_s"]
    return json.loads(json.dumps(result))


_FRESH = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_operator_lab import _state_call
print(json.dumps(_state_call(*json.loads(sys.argv[2]))))
"""


def test_grid_memo_leaves_no_state_in_results(tmp_path):
    # bases built for one problem and grown for another: every result equals
    # the same call in a fresh process
    calls = [("study", _DEG16), ("study", _DEG2), ("study", _DEG16), ("run", 64), ("run", 256), ("run", 64)]
    got = [_state_call(kind, arg, str(tmp_path / "in.json")) for kind, arg in calls]
    src = str(Path(operator_lab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    fresh = {}
    for (kind, arg), result in zip(calls, got):
        key = json.dumps([kind, arg, str(tmp_path / "fresh.json")])
        if key not in fresh:
            done = subprocess.run([sys.executable, "-c", _FRESH, str(Path(__file__).parent), key],
                                  env=env, capture_output=True, text=True, check=True)
            fresh[key] = json.loads(done.stdout)
        assert result == fresh[key], (kind, arg)
    assert got[0]["residuals"] != got[1]["residuals"] and got[3][0]["operator"]["sizes"] == [32, 64]


def test_grid_memo_is_bounded_and_read_only():
    g = Grid.uniform(40, 1)
    assert Grid.uniform(40, F(1)) is g
    for part in (g.nodes, g.weights, *vars(g.bases(5)).values()):
        with pytest.raises(ValueError):
            part[0] = 0
    for n in range(41, 41 + 2 * operator_lab._GRIDS):
        Grid.uniform(n, 1)
    assert operator_lab._uniform.cache_info().currsize == operator_lab._GRIDS

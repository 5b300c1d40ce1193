"""Quadrature discretization of the realization operators.

The operators A, B_k, T and the rank-one product N_2 N_1* are replaced by
Nystrom matrices on a grid with nodes x_j and positive weights w_j (the
midpoint rule in practice: order 2, robust across the kernel's diagonal
kink).  The structural identity

    T B_1 - B_2* T = N_2 N_1*

then holds up to discretization error, whose decay under grid refinement
is the quantity reported here.

None of the dense operator matrices is formed except T.  With W = diag(w)
and 1 the vector of ones, the matrices are

    A[i, j] = i w_j (j < i),  i w_i / 2 (j = i),  0 (j > i)   f -> i int_0^x f
    B_k     = A + 1 r_k^T,    r_k = -i w conj(Phi_k(x))       P_k* f
    T[i, j] = c U(x_i, x_j) w_j
    N_2 N_1* = n_2 (w conj(n_1))^T,  n_2 = -i (conj(alpha) + beta) M_2(x),
                                     n_1 = conj(M_2(a - x)),

and the L^2(0, a) adjoint of a matrix M is M* = W^{-1} M^H W, so that
A*[i, j] = -i w_j for j > i and -i w_i / 2 on the diagonal.  With the
suffix sums S_j(v) = sum_{k>=j} v_k, the midpoint integral of f from node
j to a is S_j(w f) - w_j f_j / 2, and

    (T A)[i, j]  =  i w_j (S_j(T[i, :]) - T[i, j] / 2)      (along rows)
    (A* T)[i, j] = -i (S_i(w T[:, j]) - w_i T[i, j] / 2)   (along columns)
    (1 r_2^T)* T = (W^{-1} conj(r_2)) (w^T T).

The residual is therefore

    T B_1 - B_2* T - N_2 N_1*
        = i [S_rows(T) W + S_cols(W T) - T[i, j] (w_i + w_j) / 2]
          + [T 1, -W^{-1} conj(r_2), -n_2] [r_1; w^T T; w conj(n_1)],

two cumulative sums and one n x 3 by 3 x n product: O(n^2) per grid for
any positive weights, where the dense form costs two complex n^3 products.
The sequential cumulative sums carry more rounding error than the dense
products: on degree 3-8 pairs at n = 256 the residual is within 1e-11
relative of a long-double evaluation of the dense form on the same T
(dense float64: 2e-13), far below the discretization error it measures.

Row blocks.  T and the residual are computed _BLOCK = 32 rows at a time;
no n x n array but T is formed.  The nodes ascend, so x_i < t_j exactly
when j > i: rows [s, e) take the upper piece of U alone in the columns
below s, the lower piece alone from e on, and both only in their diagonal
block, split at its strict upper triangle.  Each piece is
(V_x C)(diag(c w) V_t)^T with Vandermonde matrices V.  The residual walks
the blocks bottom-up, continuing the column sums S_cols(W T) from a row
carried up from the block below, in one whole-column cumsum's order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import BezoutKernel, MFunctions, NormalizedPair


@dataclass(frozen=True)
class Grid:
    nodes: np.ndarray
    weights: np.ndarray
    a: float

    @property
    def n(self) -> int:
        return len(self.nodes)

    @classmethod
    def uniform(cls, n: int, a) -> "Grid":
        """Composite midpoint rule: interior nodes, weights summing to a."""
        a = float(a)
        h = a / n
        nodes = (np.arange(n) + 0.5) * h
        return cls(nodes, np.full(n, h), a)


@dataclass(frozen=True)
class Discretization:
    """The Nystrom matrix of T and the vectors that fix every other operator.

    `row1`, `row2` are r_1, r_2 of B_k = A + 1 r_k^T; `n1`, `n2` give
    N_2 N_1* = n_2 (w conj(n_1))^T (see the module docstring).
    """

    grid: Grid
    t: np.ndarray
    row1: np.ndarray
    row2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray


#: Rows of T per block in `kernel_matrix` and `identity_residual`.
_BLOCK = 32


def kernel_matrix(k: BezoutKernel, grid: Grid) -> np.ndarray:
    """Nystrom matrix of T: T[i, j] = c U(x_i, t_j) w_j, in row blocks."""
    x, n = grid.nodes, grid.n
    vander = lambda m: np.vander(x, m, increasing=True)
    cw = complex(k.c) * grid.weights[:, None]
    (xl, tl), (xu, tu) = ((vander(p.shape[0]) @ p, vander(p.shape[1]) * cw)
                          for p in k.float_pieces)
    t = np.empty((n, n), dtype=complex)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        np.matmul(xu[s:e], tu[:s].T, out=t[s:e, :s])
        np.matmul(xl[s:e], tl[e:].T, out=t[s:e, e:])
        diag = xu[s:e] @ tu[s:e].T
        np.copyto(diag, xl[s:e] @ tl[s:e].T, where=np.triu(np.ones(diag.shape, bool), 1))
        t[s:e, s:e] = diag
    return t


def discretize_all(
    pair: NormalizedPair,
    k: BezoutKernel,
    mf: MFunctions,
    grid: Grid,
) -> Discretization:
    """T and the vectors r_1, r_2, n_1, n_2 on the grid."""
    w = grid.weights
    # P_k* f = -i int_0^a f(t) conj(Phi_k(t)) dt
    row1, row2 = (-1j * w * np.conj(phi.eval_float(grid.nodes))
                  for phi in (mf.phi1, mf.phi2))
    scale = complex(mf.alpha.conjugate() + mf.beta)
    n2 = -1j * scale * mf.m2.eval_float(grid.nodes)
    n1 = np.conj(mf.m2.eval_float(float(pair.a) - grid.nodes))
    return Discretization(grid, kernel_matrix(k, grid), row1, row2, n1, n2)


def identity_residual(ops: Discretization) -> float:
    """Frobenius norm of T B_1 - B_2* T - N_2 N_1* on the common grid."""
    w, t, n = ops.grid.weights, ops.t, ops.grid.n
    # r = R / i has the norm of R
    left = 1j * np.stack([t.sum(axis=1), -np.conj(ops.row2) / w, -ops.n2], axis=1)
    right = np.stack([ops.row1, w @ t, w * np.conj(ops.n1)])
    carry = np.zeros((1, n), dtype=complex)  # S_cols(W T) of the row below the block
    total = 0.0
    for e in range(n, 0, -_BLOCK):
        s = max(e - _BLOCK, 0)
        blk = t[s:e]
        wt = w[s:e, None] * blk
        cols = np.cumsum(np.concatenate([carry, wt[::-1]]), axis=0)
        carry = cols[-1:]
        r = np.empty_like(blk)
        np.cumsum(blk[:, ::-1], axis=1, out=r[:, ::-1])
        r *= w
        r += cols[:0:-1]
        wt += blk * w
        wt *= 0.5
        r -= wt
        r -= left[s:e] @ right
        total += np.vdot(r, r).real
    return float(np.sqrt(total))


def convergence_study(
    pair: NormalizedPair,
    k: BezoutKernel,
    mf: MFunctions,
    sizes=(32, 64, 128, 256),
) -> dict:
    """Residuals and refinement ratios over a sequence of grid sizes.

    A ratio whose finer residual is 0 (the coincidence case) is None.
    """
    residuals = []
    for n in sizes:
        ops = discretize_all(pair, k, mf, Grid.uniform(n, pair.a))
        residuals.append(identity_residual(ops))
    ratios = [
        residuals[i] / residuals[i + 1] if residuals[i + 1] != 0 else None
        for i in range(len(residuals) - 1)
    ]
    return {"norm": "fro", "sizes": list(sizes),
            "residuals": residuals, "ratios": ratios}


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
    N_2 N_1* = n_2 (w conj(n_1))^T,  n_2 = -i M_2(x),  n_1 = conj(M_2(a - x)),

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
(V_x C)(diag(c w) V_t)^T, with V_x and V_t column slices of one complex
Vandermonde matrix of the nodes, as wide as the widest piece dimension.
The residual walks the blocks bottom-up in three (_BLOCK, n) buffers that
every block reuses (a shorter last block uses their first rows).  The
column sums S_cols(W T) continue from the row below: its sums are added
into the block's last row of W T before the block's cumsum, which keeps
one whole-column cumsum's order.  The weights are complex-typed, as every
product with a complex array would cast them anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import eval_float_rows
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
    n = grid.n
    pieces = k.float_pieces
    vander = np.vander(grid.nodes.astype(complex), max(d for p in pieces for d in p.shape),
                       increasing=True)
    cw = complex(k.c) * grid.weights[:, None]
    (xl, tl), (xu, tu) = ((vander[:, :p.shape[0]] @ p, vander[:, :p.shape[1]] * cw)
                          for p in pieces)
    t = np.empty((n, n), dtype=complex)
    upper = np.triu(np.ones((_BLOCK, _BLOCK), bool), 1)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        np.matmul(xu[s:e], tu[:s].T, out=t[s:e, :s])
        np.matmul(xl[s:e], tl[e:].T, out=t[s:e, e:])
        np.matmul(xu[s:e], tu[s:e].T, out=t[s:e, s:e])
        np.copyto(t[s:e, s:e], xl[s:e] @ tl[s:e].T, where=upper[:e - s, :e - s])
    return t


def discretize_all(
    pair: NormalizedPair,
    k: BezoutKernel,
    mf: MFunctions,
    grid: Grid,
) -> Discretization:
    """T and the vectors r_1, r_2, n_1, n_2 on the grid."""
    w, x = grid.weights, grid.nodes
    phi1, phi2, m2, m2_reflected = eval_float_rows(
        (mf.phi1, mf.phi2, mf.m2, mf.m2), np.stack([x, x, x, float(pair.a) - x]))
    # P_k* f = -i int_0^a f(t) conj(Phi_k(t)) dt
    row1, row2 = (-1j * w * np.conj(phi) for phi in (phi1, phi2))
    n2, n1 = -1j * m2, np.conj(m2_reflected)
    return Discretization(grid, kernel_matrix(k, grid), row1, row2, n1, n2)


def identity_residual(ops: Discretization) -> float:
    """Frobenius norm of T B_1 - B_2* T - N_2 N_1* on the common grid."""
    t, n = ops.t, ops.grid.n
    w = ops.grid.weights.astype(complex)
    # r = R / i has the norm of R
    left = 1j * np.stack([t.sum(axis=1), -np.conj(ops.row2) / w, -ops.n2], axis=1)
    right = np.stack([ops.row1, w @ t, w * np.conj(ops.n1)])
    # cols[0] carries S_cols(W T) of the row below the block (0 below the last row)
    wt, cols, r = np.zeros((3, _BLOCK, n), dtype=complex)
    total = 0.0
    for e in range(n, 0, -_BLOCK):
        s = max(e - _BLOCK, 0)
        blk, wt_b, cols_b, r_b = t[s:e], wt[:e - s], cols[:e - s], r[:e - s]
        np.multiply(w[s:e, None], blk, out=wt_b)
        wt_b[-1] += cols[0]
        np.cumsum(wt_b[::-1], axis=0, out=cols_b[::-1])  # S_cols(W T) of rows s..e-1
        np.multiply(w[e - 1], blk[-1], out=wt_b[-1])  # the last row again, without the carry
        np.multiply(blk, w, out=r_b)  # r as scratch: wt = T[i, j] (w_i + w_j) / 2
        wt_b += r_b
        wt_b *= 0.5
        np.cumsum(blk[:, ::-1], axis=1, out=r_b[:, ::-1])
        r_b *= w
        r_b += cols_b
        r_b -= wt_b
        np.matmul(left[s:e], right, out=wt_b)
        r_b -= wt_b
        total += np.vdot(r_b, r_b).real
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


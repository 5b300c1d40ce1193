"""Quadrature discretization of the realization operators.

The operators A, B_k, T and the rank-one product N_2 N_1* are replaced by
Nystrom matrices on a grid with nodes x_j and positive weights w_j (the
midpoint rule in practice: order 2, robust across the kernel's diagonal
kink).  The structural identity

    T B_1 - B_2* T = N_2 N_1*

then holds up to discretization error, whose decay under grid refinement
is the quantity reported here.

With W = diag(w) and 1 the vector of ones, the Nystrom matrices are

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

The residual R = T B_1 - B_2* T - N_2 N_1* is therefore, with
W^{-1} conj(r_2) = i Phi_2(x) and w conj(n_1) = w M_2(a - x),

    R / i = S_rows(T) W + S_cols(W T) - T[i, j] (w_i + w_j) / 2
            - (T 1)_i w_j conj(Phi_1(x_j)) - Phi_2(x_i) (w^T T)_j
            + M_2(x_i) w_j M_2(a - x_j).

Generators.  No n x n array is formed.  U is a polynomial on each
triangle, so each triangle of T has rank at most r, the width of its
piece's table (Vandebril, Van Barel and Mastronardi, Matrix Computations
and Semiseparable Matrices, 2008; Eidelman and Gohberg, IEOT 34, 1999).
The nodes ascend, so x_i < x_j exactly when j > i.  With V the
Vandermonde matrix of the nodes' centered values, the x-sides
a_l = c V C_l and a_u = c V C_u and the t-sides p = w V and q = w V (as
wide as each table) give

    T[i, j] = a_l[i] . p_j  (j > i),    a_u[i] . q_j  (j <= i).

Every sum stays inside its own triangle: only the suffix sums
P_j = S_j(p) and B_i = S_i(w a_u) and the prefix sums Q_j = sum_{k<j} q_k
and A_j = sum_{k<j} w_k a_l[k] are formed, A and B in one cumsum (P and
Q are the grid's, below).  Then
(T 1)_i = a_u[i] . (Q_i + q_i) + a_l[i] . (P_i - p_i) and
(w^T T)_j = A_j . p_j + B_j . q_j, and R / i is X[i] . Y[j] with

    j > i:   X = [a_l, -(A + w a_l / 2), 1 - Phi_2, -T 1, M_2]
             Y = [w (P - p / 2), p, w^T T, w conj(Phi_1), w M_2(a - x)]
    j <= i:  X = [T 1, -a_u, B - w a_u / 2, -Phi_2, M_2]
             Y = [w (1 - conj(Phi_1)), w (Q + q / 2), q, w^T T, w M_2(a - x)],

rank 2r + 3 on each triangle, for any positive weights.  A sum that
crossed the diagonal would evaluate a piece outside its triangle, where
large values cancel.  The pieces are tabled in the centered variables
xi = 2x/a - 1 and tau = 2t/a - 1 (`BezoutKernel.float_pieces`), so every
power is at most 1 in size; in x and t on [0, a] the monomials lose
digits of their own.  Phi_1, Phi_2, M_2(x) and M_2(a - x) come off the
same Vandermonde matrix V, from their xi-coefficients
(`MFunctions.float_table`; xi(a - x) = -xi(x)), in the product that gives
the x-sides.  In x their coefficients are of size about a^-k and drop
terms: at a = 1e200, Phi_2's x^2 coefficient for Psi_2 = 1 + t rounds to
0.0.  A prototype with crossing sums in monomials was 3.3e-10 off the
dense residual.  Measured against the dense formula in
fixed point at 2^-200 (the test's reference), at the float nodes and
weights: on 96 random cases (degrees 0-8, a in {1, 7/3}, n in {64, 100},
uniform and random grids) this form is at most 3.4e-12 off, the float64
dense form 1.9e-11; on 24 cases with a in {40, 1/3} and n <= 64, 5.1e-12
and 4.1e-12; on two degree-(8, 2) `kernel-operator` problems at n = 256,
1.7e-12 and 5.6e-12, where the dense form is 5.0e-11 and 1.2e-10 off.
With Phi_1, Phi_2 and M_2 in x, three further draws of 96 such cases were
at most 1.3e-11 off; with them in xi, at most 4.9e-12.

Scale.  With T fixed, R is linear in the weights of A, B_k and N_2 N_1*,
so R = a R' where R' takes v = w / a for those weights.  The generators
are R' (v in place of w above, T unchanged) and `identity_residual`
multiplies the norm by a.  With w itself, factors w^2 ~ a^2 would sit next
to x-sides of size 1/a: at a = 2^-510 they are subnormal and the residual
loses six digits.  With v, the same density shapes on [0, a] give a times
the residual on [0, 1], to the bit for a power of two.

Grid bases.  V, p = q = w V, the prefix and suffix sums of p and the
blocks v (P - p / 2) and v (Q + q / 2) depend on the nodes and the
weights alone, and are real.  The kernel constant c scales the piece
tables' columns of the x-side product instead; `build_kernel`'s c = -1
negates them exactly, so each generator product is the one that c on the
t-sides would give, to the bit.  A grid builds its bases on first use
(`Grid.bases`), as wide as the widest table asked so far, and again
wider when a wider table asks; `discretize_all` does only the problem's
part: the one product for the x-sides and the M-function columns, the
cumsums of v a_l and v a_u, the four row dots and the assembly.
`np.vander` forms column k as column k - 1 times xi, each cumsum runs
down its own column and every other step is elementwise, so no column
depends on the width; the product reads the first columns, the same
operands a fresh grid has.  Every generator and
residual is therefore a fresh grid's, bit for bit.  `Grid.uniform` keeps
the last _GRIDS = 4 grids, one per (n, float a): a refinement ladder, so
repeated problems in one process build each rung's bases once.  The kept
arrays are read-only; they take 48 bytes per node and table column.

Row blocks.  `identity_residual` forms R in blocks of _BLOCK = 32 rows
and adds |R|^2 to a running sum.  Block [s, e) takes two products, each
transposed so that the rows it keeps are contiguous: the lower generators
with the columns from s on, the upper ones with the columns below e.  In
the diagonal block the strict upper triangle comes from the first, the
rest from the second.  Two (n, _BLOCK) buffers serve every block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exact import float_endpoint
from .kernel import BezoutKernel, MFunctions, NormalizedPair

#: Uniform grids that `Grid.uniform` keeps: a refinement ladder has at most four.
_GRIDS = 4


@dataclass(frozen=True)
class GridBases:
    """The node-only parts of the generators on one grid, `width` columns
    wide (module doc, Grid bases).  Read-only.

    `vander` is V, xi^k at the nodes; `p` is w V (p = q); `pre[j]` and
    `suf[j]` sum the rows k < j and k >= j of p; `y_lower` = v (P - p / 2)
    and `y_upper` = v (Q + q / 2), v = w / a.
    """

    vander: np.ndarray
    p: np.ndarray
    pre: np.ndarray
    suf: np.ndarray
    y_lower: np.ndarray
    y_upper: np.ndarray
    v: np.ndarray

    @property
    def width(self) -> int:
        return self.vander.shape[1]

    @classmethod
    def build(cls, grid: "Grid", width: int) -> "GridBases":
        n, w = grid.n, grid.weights
        vander = np.vander(2 * (grid.nodes / grid.a) - 1, width, increasing=True)  # 2x would overflow near 1e308
        p = w[:, None] * vander
        # pre and suf in one array: prefix sums of p, and of p's reversed rows
        sums = np.zeros((2, n + 1, width))
        np.cumsum(p, axis=0, out=sums[0, 1:])
        np.cumsum(p[::-1], axis=0, out=sums[1, 1:])
        pre, suf = sums[0], sums[1, ::-1]
        v = w / grid.a
        bases = cls(vander, p, pre, suf, v[:, None] * (suf[:n] - 0.5 * p),
                    v[:, None] * (pre[:n] + 0.5 * p), v)
        for part in vars(bases).values():
            part.flags.writeable = False
        return bases


@dataclass(frozen=True)
class Grid:
    nodes: np.ndarray
    weights: np.ndarray
    a: float
    _bases: GridBases | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @classmethod
    def uniform(cls, n: int, a) -> "Grid":
        """Composite midpoint rule: interior nodes, weights summing to a.
        The last _GRIDS grids asked for are kept, with their bases."""
        return _uniform(n, float_endpoint(a))

    def bases(self, width: int) -> GridBases:
        """The grid's bases, at least `width` columns wide: built on first
        use, and again wider when a wider table asks."""
        if self._bases is None or self._bases.width < width:
            object.__setattr__(self, "_bases", GridBases.build(self, width))
        return self._bases


@lru_cache(maxsize=_GRIDS)
def _uniform(n: int, a: float) -> Grid:
    h = a / n
    nodes, weights = (np.arange(n) + 0.5) * h, np.full(n, h)
    nodes.flags.writeable = weights.flags.writeable = False
    return Grid(nodes, weights, a)


@dataclass(frozen=True)
class Discretization:
    """T and the residual by their generators on each triangle, and the
    vectors that fix every other operator (module doc).

    `t_lower` = (a_l, p) and `t_upper` = (a_u, q): T[i, j] = a_l[i] . p[j]
    for j > i and a_u[i] . q[j] for j <= i.  `r_lower` and `r_upper` =
    (X, Y): R / (i a) is X[i] . Y[j] on the same triangles.
    """

    grid: Grid
    t_lower: tuple
    t_upper: tuple
    r_lower: tuple
    r_upper: tuple


#: Rows of the residual per block in `identity_residual`.
_BLOCK = 32


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[i] . v[i] for every row i."""
    return np.einsum("ij,ij->i", u, v)


def discretize_all(
    pair: NormalizedPair,
    k: BezoutKernel,
    mf: MFunctions,
    grid: Grid,
) -> Discretization:
    """The generators of T and of the residual R / a on the grid (module doc);
    the node-only parts come from `grid.bases`.

    `pair` is not read: k and mf hold all that the pair fixes.  It keeps
    `grid` at args[3], where the benchmark's `grid_cells` counter
    (`perfbench/spans.py`) reads the grid size."""
    n = grid.n
    lower, upper = k.float_pieces
    mtab = mf.float_table
    rl, ru = lower.shape[1], upper.shape[1]
    width = max(*lower.shape, *upper.shape, len(mtab))
    b = grid.bases(width)
    coeffs = np.zeros((width, rl + ru + 4), dtype=complex)
    coeffs[:lower.shape[0], :rl], coeffs[:upper.shape[0], rl:rl + ru] = lower, upper
    coeffs[:, :rl + ru] *= k.c  # T = c U w: c on the x-sides (module doc)
    coeffs[:len(mtab), rl + ru:] = mtab
    sides = b.vander[:, :width] @ coeffs
    al, au = sides[:, :rl], sides[:, rl:rl + ru]
    phi1, phi2, m2, m2_reflected = sides[:, rl + ru:].T  # M_2(a - x) as xi -> -xi
    p, q = b.p[:, :rl], b.p[:, :ru]

    # One cumsum: prefix sums of v a_l, suffix sums of v a_u (run on
    # reversed rows), v = w / a.  a_pre[j] sums the rows k < j; b_suf[j]
    # those k >= j.
    v = b.v
    sums = np.zeros((n + 1, rl + ru), dtype=complex)
    val, vau = v[:, None] * al, v[:, None] * au
    np.cumsum(np.concatenate([val, vau[::-1]], axis=1), axis=0, out=sums[1:])
    a_pre, b_suf = sums[:n, :rl], sums[::-1][:n, rl:]
    t1 = _rowdot(au, b.pre[1:, :ru]) + _rowdot(al, b.suf[1:, :rl])  # T 1
    vt = _rowdot(a_pre, p) + _rowdot(b_suf, q)  # v^T T

    vm2, phi1_conj = v * m2_reflected, np.conj(phi1)
    r_lower = (np.column_stack([al, -(a_pre + 0.5 * val), 1 - phi2, -t1, m2]),
               np.column_stack([b.y_lower[:, :rl], p, vt, v * phi1_conj, vm2]))
    r_upper = (np.column_stack([t1, -au, b_suf - 0.5 * vau, -phi2, m2]),
               np.column_stack([v * (1 - phi1_conj), b.y_upper[:, :ru], q, vt, vm2]))
    return Discretization(grid, (al, p), (au, q), r_lower, r_upper)


def identity_residual(ops: Discretization) -> float:
    """Frobenius norm of T B_1 - B_2* T - N_2 N_1* on the common grid, from
    the generators in row blocks (module doc)."""
    n = ops.grid.n
    (xl, yl), (xu, yu) = ops.r_lower, ops.r_upper
    low_buf, up_buf = np.empty((2, n * _BLOCK), dtype=complex)
    strict = np.arange(_BLOCK)[:, None] > np.arange(_BLOCK)  # j > i, read transposed
    total = 0.0
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        b = e - s
        low = np.matmul(yl[s:], xl[s:e].T, out=low_buf[:(n - s) * b].reshape(n - s, b))
        up = np.matmul(yu[:e], xu[s:e].T, out=up_buf[:e * b].reshape(e, b))
        np.copyto(up[s:], low[:b], where=strict[:b, :b])
        total += np.vdot(low[b:], low[b:]).real + np.vdot(up, up).real
    return ops.grid.a * float(np.sqrt(total))


def convergence_study(
    pair: NormalizedPair,
    k: BezoutKernel,
    mf: MFunctions,
    sizes,
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


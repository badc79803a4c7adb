"""Dense primal-dual interior-point solver for small SDPs.

Problem form (after substituting the pinned y-coordinates):

    maximize    c . z
    subject to  A(z) = F0 + sum_i z_i F_i  is positive semidefinite,

with Lagrange dual  minimize <F0, X>  over  X PSD, <F_i, X> = -c_i.  The
complementarity gap of a primal/dual pair is <Z, X>.

The solver is an infeasible-start path follower: iterates (z, Z, X) start at
z = 0, Z = X = (1 + data norm) I and need not satisfy Z = A(z) or the dual
equalities; both residuals shrink by the factor (1 - alpha) per step.  Search
directions come from the HKM linearization Z dX + dZ X = C - Z X (solutions
symmetrized), with the right-hand side C chosen by a Mehrotra
predictor-corrector: an affine probe (C = 0) picks the centering weight
sigma = (mu_aff/mu)^3, and the corrector reuses the affine second-order term.
The F_i are kept as flat sparse (COO) entries, so <F_i, M> for all i and
sum_i z_i F_i are one bincount each.  The Schur complement
H_ij = <F_i, Z^-1 F_j X> is filled a column block at a time from Z^-1, formed
once per iteration (Fujisawa-Kojima-Nakata, Math. Prog. 79, 1997).  F_j is
zero outside the rows and columns S_j its entries touch (at most 6 of them
for the graph relaxations), so Z^-1 F_j X is the low-rank product
Z^-1[:, S_j] F_j[S_j, S_j] X[S_j, :]; the supports and the small blocks
F_j[S_j, S_j] are laid out once per solve, padded per column block to its
widest support.  H is factored once per iteration, by Cholesky with
escalating diagonal jitter, and the factor serves the predictor and the
corrector (least squares if no jitter helps) through block forward and back
substitution.  The factor's diagonal blocks of _TRI_BLOCK rows are inverted
once per iteration, in one batched call, so the four substitutions of an
iteration are matrix products only.  Z and X are kept as one (2, m, m)
stack, so one batched Cholesky call factors both (only when it fails is
each matrix factored on its own, with escalating jitter) and one call
inverts both factors; Z^-1 comes from the first.  The step-length search
whitens a direction D as L^-1 D L^-T with those inverse factors: the
predictor's pair (dZ, dX) takes one batched whitening and one eigvalsh for
both smallest eigenvalues, and so does the corrector's pair.  A problem whose dense arrays would pass
_MEMORY_LIMIT_BYTES is refused before any is allocated.  The step is
min(1, 0.98 x the step to the boundary), shared by primal and dual, and is
taken uncut: the gap <Z, X> may rise along it, which is how X or z grows
along the ray that shows an SDP infeasible or unbounded.  Everything is
plain numpy; given identical inputs the iterate sequence is bitwise
reproducible.

A pair is Optimal when rel_p = ||A(z) - Z|| / (1 + ||F0||) and
rel_d = ||-c - (<F_i, X>)_i|| / (1 + ||c|| + ||X||) are at most feas_tol
and the relative gap is at most gap_tol; NearOptimal, at the iteration
limit, allows 100 times each.  The float error of <F_i, X> grows with ||X||,
so rel_d is scaled by it: scaled by 1 + ||c|| alone, its rounding floor
could sit at feas_tol (||X|| ~ 1e3 on a level-2 theta SDP of 14 sphere
points), and whether such a run stopped turned on the last bits of its
iterates.

Before the loop, two exact rules read only the sparse entries, F0 and c
(_presolve; entries with coefficient 0.0 count as absent).  A diagonal cell
that no F_i touches and where F0 is below -PSD_TOL (1 + ||F0||) makes every
A(z) indefinite: Infeasible, with that cell's unit matrix E_pp as the
certificate.  Partial facial reduction of the dual with diagonal matrices
(Permenter-Parrilo, Math. Prog. 171, 2018): a coordinate with c_i = 0 whose
remaining entries lie on the diagonal, all of one sign, forces X_pp = 0 on
those rows for every dual-feasible X, so the rows are removed and the scan
repeats.  When that removed some row, some coordinate with c_i != 0 has no
entry left on the kept rows (the dual is infeasible) and F0 is positive
definite on them (the primal is strictly feasible), the SDP is Unbounded by
Slater's condition, and a strictly feasible z is reported.  Its objective
may grow only along a curve, where the loop's ray test cannot see it.  Both
rules report 0 iterations.

Infeasibility is certified through the normalized dual iterate: whenever
X / tr(X) annihilates every F_i but pairs negatively with F0, no z can make
A(z) PSD, and that matrix is returned as the certificate.  The probe runs
only when <F0, X> < 0, the sign of that pairing.  Besides the presolve,
unboundedness is declared when the corrector's step dz is an improving ray:
c . dz > 0 and sum dz_i F_i PSD up to a small negative floor, at an A(z)
that clears the fixed floor -PSD_TOL (1 + ||F0||).  The reported y rides
the ray for an objective gain past 1e12, and the ride is halved until A(y)
clears that floor too (an empty ride does).  The ray's eigenvalues are not
computed when a diagonal entry of sum dz_i F_i is below twice the floor, or
a 2x2 principal submatrix minus twice the floor is not PSD: the smallest
eigenvalue is at most that of every principal submatrix, and eigvalsh errs
by far less than the floor, so the test could not pass.
A candidate optimum is called Optimal only if the smallest eigenvalue of the
assembled A(z), from eigvalsh, is at least -PSD_TOL; otherwise NearOptimal.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .errors import InputError, ResourceLimitError
from .exactalg import _Record
from .momentsdp import INFEASIBLE, ITER_LIMIT, NEAR_OPTIMAL, OPTIMAL, UNBOUNDED, SdpProblem
from .options import SolverOptions

# Eigen-floor an Optimal A(z) must clear, fraction-to-boundary step rule and
# the objective gain the ray rule rides toward before it reports Unbounded.
PSD_TOL = 1e-7
STEP_FRACTION = 0.98
UNBOUNDED_THRESHOLD = 1e12


class SdpSolution(_Record):
    """The solver's result; certificate is a matrix (nested lists) or None,
    and gap_history, the gap after each iteration, stays out of to_json."""

    _fields = ("y", "objective", "status", "duality_gap", "min_eig", "iterations",
               "certificate", "gap_history")
    _internal = ("gap_history",)


def _psd_factor(matrix: np.ndarray, jitter_base: float) -> Optional[np.ndarray]:
    """Cholesky factor of matrix + jitter*I, or None if 12 tries fail.

    The jitter starts at 0, then jitter_base times the mean diagonal
    magnitude (at least 1), and grows 100-fold per failed try.
    """
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        pass
    n = matrix.shape[0]
    jitter = jitter_base * max(abs(matrix.trace()) / max(n, 1), 1.0)
    for _ in range(11):
        try:
            return np.linalg.cholesky(matrix + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            jitter *= 100.0
    return None


def _pair_factor(pair: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of matrices, in one call.

    Only when that call fails is each matrix factored on its own by
    _psd_factor, with escalating jitter; a matrix that is positive definite
    gets the same factor either way.
    """
    try:
        return np.linalg.cholesky(pair)
    except np.linalg.LinAlgError:
        pass
    factors = [_psd_factor(mat, 1e-14) for mat in pair]
    if any(fac is None for fac in factors):
        raise np.linalg.LinAlgError("matrix not factorizable even with jitter")
    return np.stack(factors)


def _step_to_boundary(inv_factors: np.ndarray, directions: np.ndarray) -> List[float]:
    """Largest step keeping M_k + alpha*D_k PSD, for each k of the stacks,
    where inv_factors[k] = chol(M_k)^-1: one whitening and one eigvalsh."""
    whitened = inv_factors @ directions @ inv_factors.transpose(0, 2, 1)
    lam = np.linalg.eigvalsh(0.5 * (whitened + whitened.transpose(0, 2, 1)))[:, 0]
    return [np.inf if v >= -1e-14 else -1.0 / v for v in lam.tolist()]


# Rows of the diagonal blocks in _tri_solve.  For a lower factor of side
# 305, one iteration's block inverses and four substitutions took 0.47 ms
# with 32 rows, 0.59 ms with 16, 0.62 ms with 48 and 1.09 ms with 64; an LU
# solve per 32-row block took 1.19 ms, and four whole np.linalg.solve calls
# 4.05 ms (one BLAS thread, 2-CPU Xeon).  A factor of at most 32 rows is
# inverted whole.
_TRI_BLOCK = 32


def _block_inverses(factor: np.ndarray) -> np.ndarray:
    """Inverses of the diagonal blocks of a lower-triangular factor, of
    min(n, _TRI_BLOCK) rows each, from one batched np.linalg.inv; the last
    block is padded with the identity."""
    n = factor.shape[0]
    if n <= _TRI_BLOCK:
        return np.linalg.inv(factor)[None]
    size = _TRI_BLOCK
    count = -(-n // size)
    blocks = np.zeros((count, size, size))
    for s in range(0, n, size):
        e = min(s + size, n)
        blocks[s // size, : e - s, : e - s] = factor[s:e, s:e]
    pad = np.arange(n - (count - 1) * size, size)
    blocks[-1, pad, pad] = 1.0
    return np.linalg.inv(blocks)


def _tri_solve(factor: np.ndarray, inverses: np.ndarray, rhs: np.ndarray,
               transpose: bool = False) -> np.ndarray:
    """Solve L x = rhs, or L^T x = rhs if transpose, for lower-triangular L
    with inverses = _block_inverses(L).

    Block forward (back) substitution in matrix products only: each
    diagonal block is applied through its inverse.
    """
    n = factor.shape[0]
    size = inverses.shape[1]
    if size == n:
        return (inverses[0].T if transpose else inverses[0]) @ rhs
    x = np.array(rhs, dtype=float)
    starts = range(0, n, size)
    if transpose:
        for s in reversed(starts):
            e = min(s + size, n)
            x[s:e] = inverses[s // size, : e - s, : e - s].T @ x[s:e]
            x[:s] -= factor[s:e, :s].T @ x[s:e]
    else:
        for s in starts:
            e = min(s + size, n)
            x[s:e] = inverses[s // size, : e - s, : e - s] @ x[s:e]
            x[e:] -= factor[e:, s:e] @ x[s:e]
    return x


def _norm(v: np.ndarray) -> float:
    """Frobenius norm of a C-contiguous real array, computed as np.linalg.norm
    computes it (sqrt of the flat dot product), without its dispatch."""
    flat = v.ravel()
    return math.sqrt(flat.dot(flat))


def _min_eig(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0])


def _min_eig_at_least(matrix: np.ndarray, floor: float) -> bool:
    """_min_eig(matrix) >= floor, for a floor < 0 far above eigvalsh's error.

    lambda_min is at most every diagonal entry and at most the smaller
    eigenvalue of every 2x2 principal submatrix, so a diagonal entry below
    2*floor, or some |m_ij| > sqrt((m_ii - 2*floor)(m_jj - 2*floor)) with
    i != j, decides the test without the eigenvalues.
    """
    shifted = matrix.diagonal() - 2.0 * floor
    if not shifted.min() >= 0.0:
        return False
    over = np.abs(matrix) > np.sqrt(np.outer(shifted, shifted))
    np.fill_diagonal(over, False)
    return not over.any() and _min_eig(matrix) >= floor


def _centering_weight(mu_aff: float, mu: float) -> float:
    """Mehrotra's sigma = (mu_aff/mu)^3, clipped to [1e-10, 0.999].

    The ratio is clamped to 1 before cubing: the clip caps sigma below 1
    anyway, and a tiny mu (a gap that went non-positive) would overflow.
    """
    return min(max(min(max(mu_aff, 0.0) / mu, 1.0) ** 3, 1e-10), 0.999)


# Byte budget of one column block of the Schur formation: the stack of
# K_j = Z^-1 F_j X for a block and the entries gathered from it each fit in
# it (a block has at least one column).  It stays below glibc's initial
# 128 KiB mmap threshold, so block buffers come from the heap rather than
# being mapped and faulted in anew for every block.  Under a fixed 128 KiB
# threshold, cut K5 level 2 (side 56) solved in 172-207 ms with it and in
# 228-290 ms with 480 KiB (one BLAS thread on a 2-CPU Xeon).
_SCHUR_BLOCK_BYTES = 120 * 1024


# Byte budget of the dense float arrays one solve keeps alive at once,
# checked before any of them is allocated.  Past it a dense interior-point
# iteration takes minutes and one solve could exhaust a shared machine's
# memory; the largest problem the tests and benchmark hand the solver, cut
# K5 level 2 with weights no automorphism keeps (side 56, 305 free
# coordinates), needs about 3.6 MB by the count below.
_MEMORY_LIMIT_BYTES = 2 * 1024**3
# m x m arrays alive at the peak of an iteration, while direction() runs:
# F_0, the stack of Z and X, A(z), the primal residual, the inverse
# Cholesky factors of Z and X, Z^-1, Z^-1 R X, the predictor's stacked
# direction, the corrector target and its own w, sum z_i F_i, the stacked
# dZ and dX, plus temporaries of the products.  tracemalloc peaks of 22 m^2
# floats (side 400 and 600, 3 free coordinates) and 3.1 d^2 floats (side 30
# and 45, 435 and 990 free coordinates) back the count.
_MXM_ARRAYS = 23
# d x d arrays: H, its symmetrized copy, a jittered copy (made only when
# plain Cholesky fails) and its factor.
_DXD_ARRAYS = 4


class _SparseF:
    """The matrices F_0..F_{d-1} of the free coordinates as flat COO entries.

    Entry e puts coeff[e] at flat position pos[e] = i*m + j of F_{l[e]}; both
    triangles are listed, and the entries are sorted by l so that the entries
    of F_a..F_{b-1} are the slice bounds[a]:bounds[b].
    """

    def __init__(self, m: int, d: int, l, pos, coeff):
        l = np.asarray(l, dtype=np.intp)
        order = np.argsort(l, kind="stable")
        self.m, self.d = m, d
        self.l = l[order]
        self.pos = np.asarray(pos, dtype=np.intp)[order]
        self.coeff = np.asarray(coeff, dtype=float)[order]
        self.bounds = np.searchsorted(self.l, np.arange(d + 1))
        # the F_i with entries, and where each one's entries start
        self.used = np.flatnonzero(self.bounds[:-1] < self.bounds[1:])
        self.used_starts = self.bounds[self.used]

    def pair(self, mat: np.ndarray) -> np.ndarray:
        """<F_i, mat> for every i."""
        return np.bincount(self.l, self.coeff * mat.ravel()[self.pos], minlength=self.d)

    def combine(self, z: np.ndarray) -> np.ndarray:
        """sum_i z_i F_i."""
        flat = np.bincount(self.pos, self.coeff * z[self.l], minlength=self.m * self.m)
        return flat.reshape(self.m, self.m)

    def norms(self) -> np.ndarray:
        """Frobenius norm of every F_i."""
        return np.sqrt(np.bincount(self.l, self.coeff**2, minlength=self.d))

    def column_blocks(self, block: int) -> list:
        """The F_j in runs of `block` coordinates, as small dense blocks.

        The support S_j of F_j is the sorted set of rows its entries touch
        (the columns too: F_j is symmetric).  Every run j0..j1-1 with entries
        gives (j0, j1, rows, small): rows[k] is S_{j0+k} padded with row 0 to
        the widest support r of the run, and small[k] = F_{j0+k}[S, S] as an
        r x r block, zero on the padding.
        """
        m = self.m
        row_key = self.l * m + self.pos // m
        touched = np.zeros(self.d * m, dtype=bool)
        touched[row_key] = True
        support = np.flatnonzero(touched)  # l*m + i for every row i of S_l, sorted
        start = np.searchsorted(support, np.arange(self.d + 1) * m)
        width = np.diff(start)
        # place of an entry's row and column within the support of its F_l
        row_rank = np.searchsorted(support, row_key) - start[self.l]
        col_rank = np.searchsorted(support, self.l * m + self.pos % m) - start[self.l]
        out = []
        for j0 in range(0, self.d, block):
            j1 = min(j0 + block, self.d)
            lo, hi = self.bounds[j0], self.bounds[j1]
            if lo == hi:
                continue
            b, r = j1 - j0, int(width[j0:j1].max())
            rows = np.zeros((b, r), dtype=np.intp)
            s0, s1 = start[j0], start[j1]
            owner = support[s0:s1] // m
            rows[owner - j0, np.arange(s0, s1) - start[owner]] = support[s0:s1] % m
            cell = ((self.l[lo:hi] - j0) * r + row_rank[lo:hi]) * r + col_rank[lo:hi]
            small = np.bincount(cell, self.coeff[lo:hi], minlength=b * r * r)
            out.append((j0, j1, rows, small.reshape(b, r, r)))
        return out


def _schur(f: _SparseF, blocks: list, zinv: np.ndarray, big_x: np.ndarray) -> np.ndarray:
    """H_ij = <F_i, Z^-1 F_j X>, filled one run of f.column_blocks at a time.

    F_j is zero off S_j x S_j, so K_j = Z^-1 F_j X is the rank-|S_j| product
    Z^-1[:, S_j] F_j[S_j, S_j] X[S_j, :]: two small batched products per
    run.  The entries of K_j that some F_i touches are gathered and summed
    per i.  Rows of F_i without entries stay zero.
    """
    m, d = f.m, f.d
    schur = np.zeros((d, d))
    for j0, j1, rows, small in blocks:
        left = zinv[:, rows].transpose(1, 0, 2) @ small
        k_blk = left @ big_x[rows]
        gathered = np.take(k_blk.reshape(j1 - j0, m * m), f.pos, axis=1)
        gathered *= f.coeff
        schur[f.used, j0:j1] = np.add.reduceat(gathered, f.used_starts, axis=1).T
    return schur


def _split_data(problem: SdpProblem, free: List[int]):
    """F_0 (the cells' pinned coordinates, dense) and the sparse F_i of the
    free coordinates, in the order of `free`."""
    m = problem.side
    index_of = {l: i for i, l in enumerate(free)}
    f_zero = np.zeros((m, m))
    ls, pos, coeffs = [], [], []
    for (i, j), vec in problem.cells.items():
        for l, coeff in vec.items():
            if l in problem.fixed:
                f_zero[i, j] += coeff * problem.fixed[l]
                if i != j:
                    f_zero[j, i] += coeff * problem.fixed[l]
            else:
                ls.append(index_of[l])
                pos.append(i * m + j)
                coeffs.append(coeff)
                if i != j:
                    ls.append(index_of[l])
                    pos.append(j * m + i)
                    coeffs.append(coeff)
    return f_zero, _SparseF(m, len(free), ls, pos, coeffs)


def _presolve(f: _SparseF, f_zero: np.ndarray, c_vec: np.ndarray, floor: float):
    """(status, z, certificate) when one of the exact rules of the module
    docstring decides the SDP, else None.

    A removed row p is one where some coordinate forced X_pp = 0, and X PSD
    then zeroes row and column p: an entry is remaining while both its row
    and column are kept.  The reported z of an Unbounded SDP is strictly
    feasible.  It is built from the last round back to the first: z = 0
    while F0 is factored on the kept rows, then each round's coordinates take
    z_i = sign_i * tau, which adds tau times a positive diagonal D to the rows
    that round removed and leaves the rows kept before it alone.  With P, Q,
    R the blocks of A(z) on (kept, kept), (kept, removed) and (removed,
    removed), tau min(D) = 1 + 2 ||Q^T P^-1 Q - R|| keeps the Schur complement
    R + tau D - Q^T P^-1 Q positive definite.
    """
    m, d = f.m, f.d
    rows, cols = np.divmod(f.pos, m)
    live = f.coeff != 0.0
    on_diag = live & (rows == cols)
    touched = np.zeros(m, dtype=bool)
    touched[rows[on_diag]] = True
    empty = np.flatnonzero(~touched & (f_zero.diagonal() < floor))
    if empty.size:
        certificate = np.zeros((m, m))
        certificate[empty[0], empty[0]] = 1.0
        return INFEASIBLE, np.zeros(d), certificate.tolist()

    off_diag = live & (rows != cols)
    positive = on_diag & (f.coeff > 0.0)
    free_c = c_vec == 0.0
    kept = np.ones(m, dtype=bool)
    rounds = []  # (sign of each coordinate that removed rows, the rows)
    while True:
        inside = kept[rows] & kept[cols]
        blocked = np.bincount(f.l[off_diag & inside], minlength=d) > 0
        n_pos = np.bincount(f.l[positive & inside], minlength=d)
        n_neg = np.bincount(f.l[on_diag & inside], minlength=d) - n_pos
        usable = free_c & ~blocked & ((n_pos == 0) != (n_neg == 0))
        if not usable.any():
            break
        hit = np.zeros(m, dtype=bool)  # np.unique would import numpy.ma
        hit[rows[on_diag & inside & usable[f.l]]] = True
        removed = np.flatnonzero(hit)
        rounds.append((np.sign(n_pos - n_neg) * usable, removed))
        kept &= ~hit
    if not rounds:
        return None
    remaining = np.bincount(f.l[live & kept[rows] & kept[cols]], minlength=d)
    if not np.any((c_vec != 0.0) & (remaining == 0)):
        return None

    z = np.zeros(d)
    block = np.flatnonzero(kept)
    try:
        for sign, removed in reversed(rounds):
            assembled = f_zero + f.combine(z)
            factor = np.linalg.cholesky(assembled[np.ix_(block, block)])
            w = np.linalg.solve(factor, assembled[np.ix_(block, removed)])
            deficit = w.T @ w - assembled[np.ix_(removed, removed)]
            lift = f.combine(sign).diagonal()[removed]
            z += (1.0 + 2.0 * _norm(deficit)) / lift.min() * sign
            block = np.r_[block, removed]
        factor = np.linalg.cholesky(f_zero + f.combine(z))
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(z).all() and np.isfinite(factor).all()):
        return None
    return UNBOUNDED, z, None


def solve(problem: SdpProblem, options: Optional[SolverOptions] = None) -> SdpSolution:
    """Solve an SdpProblem (callers go through momentsdp.solve); see the module docstring."""
    opts = options or SolverOptions()
    m = problem.side
    d = problem.y_dim - len(problem.fixed)
    need = 8 * (_MXM_ARRAYS * m * m + _DXD_ARRAYS * d * d)
    if need > _MEMORY_LIMIT_BYTES:
        raise ResourceLimitError(
            f"SDP of side {m} with {d} free coordinates needs about "
            f"{need / 1024**3:.1f} GiB of dense arrays, over the "
            f"{_MEMORY_LIMIT_BYTES / 1024**3:.0f} GiB limit"
        )

    free = sorted(l for l in range(problem.y_dim) if l not in problem.fixed)

    f_zero, f = _split_data(problem, free)
    c_vec = np.array([problem.objective.get(l, 0.0) for l in free])
    const = sum(problem.objective.get(l, 0.0) * v for l, v in problem.fixed.items())

    def finish(z, status, gap, iters, certificate=None, history=None):
        assembled = f_zero + f.combine(z)
        min_eig = _min_eig(assembled)
        if status == OPTIMAL and min_eig < -PSD_TOL:
            status = NEAR_OPTIMAL  # failed the certified feasibility check
        y_full = [0.0] * problem.y_dim
        for l, v in problem.fixed.items():
            y_full[l] = float(v)
        for i, l in enumerate(free):
            y_full[l] = float(z[i])
        return SdpSolution(
            y=y_full,
            objective=float(c_vec @ z + const) if d else float(const),
            status=status,
            duality_gap=float(gap),
            min_eig=min_eig,
            iterations=iters,
            certificate=certificate,
            gap_history=list(history or []),
        )

    if d == 0:
        min_eig = _min_eig(f_zero)
        if min_eig >= -PSD_TOL:
            return finish(np.zeros(0), OPTIMAL, 0.0, 0)
        vals, vecs = np.linalg.eigh(0.5 * (f_zero + f_zero.T))
        ray = np.outer(vecs[:, 0], vecs[:, 0])
        return finish(np.zeros(0), INFEASIBLE, 0.0, 0, certificate=ray.tolist())

    with np.errstate(over="ignore"):  # an overflow is reported just below
        norm_f0 = _norm(f_zero)
        norms_f = f.norms()
        norm_c = _norm(c_vec)
    data_norm = float(np.max(np.r_[norm_f0, norm_c, norms_f]))  # NaN propagates
    if not np.isfinite(data_norm):
        raise InputError("SDP data too large: its norm overflows")

    psd_floor = -PSD_TOL * (1.0 + norm_f0)
    decided = _presolve(f, f_zero, c_vec, psd_floor)
    if decided is not None:
        status, z, certificate = decided
        return finish(z, status, 0.0, 0, certificate=certificate)

    block = max(1, _SCHUR_BLOCK_BYTES // (8 * max(m * m, f.coeff.size)))
    blocks = f.column_blocks(block)

    z = np.zeros(d)
    eye = np.eye(m)
    # Z and X as one stack, so one call factors, inverts or whitens both
    zx = np.stack([(1.0 + data_norm) * eye] * 2)

    history: List[float] = []
    status = None
    certificate = None
    iters = 0
    rel_gap = np.inf

    for it in range(opts.max_iter + 1):
        big_z, big_x = zx
        assembled = f_zero + f.combine(z)
        residual_p = assembled - big_z
        residual_d = -c_vec - f.pair(big_x)
        gap = float((big_z * big_x).sum())
        p_obj = float(c_vec @ z)
        d_obj = float((f_zero * big_x).sum())
        rel_p = _norm(residual_p) / (1.0 + norm_f0)
        rel_d = _norm(residual_d) / (1.0 + norm_c + _norm(big_x))
        rel_gap = abs(gap) / (1.0 + abs(p_obj) + abs(d_obj))
        history.append(gap)

        if rel_p <= opts.feas_tol and rel_d <= opts.feas_tol and rel_gap <= opts.gap_tol:
            status = OPTIMAL
            break

        # dual improving ray => primal infeasible; its drift <F0, X>/tr(X)
        # has the sign of d_obj, so only a negative d_obj can pass
        trace_x = float(big_x.trace())
        if trace_x > 0 and d_obj < 0:
            x_hat = big_x / trace_x
            pairing = float(np.max(np.abs(f.pair(x_hat)) / (1.0 + norms_f)))
            drift = float((f_zero * x_hat).sum()) / (1.0 + norm_f0)
            if pairing <= 1e-9 and drift <= -1e-7:
                status = INFEASIBLE
                certificate = x_hat.tolist()
                break

        if it == opts.max_iter:
            break

        mu = max(gap, 1e-300) / m
        inv_factors = np.linalg.inv(_pair_factor(zx))
        inv_factor = inv_factors[0]
        zinv = inv_factor.T @ inv_factor
        schur = _schur(f, blocks, zinv, big_x)
        schur = 0.5 * (schur + schur.T)
        schur_factor = _psd_factor(schur, 1e-13)
        if schur_factor is not None:
            schur_inverses = _block_inverses(schur_factor)
        zinv_rx = zinv @ (residual_p @ big_x)

        def direction(c_target):
            if c_target is None:
                w = -big_x - zinv_rx
            else:
                w = zinv @ c_target - big_x - zinv_rx
            rhs = f.pair(w) - residual_d
            if schur_factor is None:
                dz = np.linalg.lstsq(schur, rhs, rcond=None)[0]
            else:
                half = _tri_solve(schur_factor, schur_inverses, rhs)
                dz = _tri_solve(schur_factor, schur_inverses, half, transpose=True)
            moved = f.combine(dz)
            # sum_j dz_j K_j = Z^-1 (sum_j dz_j F_j) X
            d_big_x = w - zinv @ moved @ big_x
            d_zx = np.empty((2, m, m))
            np.add(residual_p, moved, out=d_zx[0])
            np.add(d_big_x, d_big_x.T, out=d_zx[1])
            d_zx[1] *= 0.5
            return dz, d_zx

        # predictor
        dz_aff, d_aff = direction(None)
        alpha_p, alpha_d = (min(1.0, a) for a in _step_to_boundary(inv_factors, d_aff))
        mu_aff = float(((big_z + alpha_p * d_aff[0]) * (big_x + alpha_d * d_aff[1])).sum()) / m
        sigma = _centering_weight(mu_aff, mu)

        # corrector
        c_target = sigma * mu * eye - d_aff[0] @ d_aff[1]
        dz, d_zx = direction(c_target)
        # free H and its factor now rather than while the next H is formed
        del schur, schur_factor

        # primal improving ray: a direction whose matrix movement is PSD while
        # the objective gains proves unboundedness outright once any feasible
        # point is at hand; ride it past the reporting threshold, halving the
        # ride until A(z) clears the fixed floor (t = 0 clears it).
        dz_norm = _norm(dz)
        if dz_norm > 0:
            d_hat = dz / dz_norm
            ray_gain = float(c_vec @ d_hat)
            if ray_gain > 1e-7 * (1.0 + norm_c):
                ray_dir = f.combine(d_hat)
                ray_floor = -1e-12 * (1.0 + _norm(ray_dir))
                if _min_eig_at_least(ray_dir, ray_floor) and _min_eig(assembled) >= psd_floor:
                    t = (1.01 * UNBOUNDED_THRESHOLD + abs(p_obj)) / ray_gain
                    while t > 0 and _min_eig(f_zero + f.combine(z + t * d_hat)) < psd_floor:
                        t *= 0.5
                    z = z + t * d_hat
                    status = UNBOUNDED
                    break

        alpha = min(1.0, *(STEP_FRACTION * a for a in _step_to_boundary(inv_factors, d_zx)))
        z = z + alpha * dz
        zx = zx + alpha * d_zx
        iters += 1

    if status is None:
        if (
            rel_p <= 100 * opts.feas_tol
            and rel_d <= 100 * opts.feas_tol
            and rel_gap <= 100 * opts.gap_tol
        ):
            status = NEAR_OPTIMAL
        else:
            status = ITER_LIMIT

    return finish(z, status, rel_gap, iters, certificate=certificate, history=history)

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
substitution.  The step-length search whitens a direction D as
L^-1 D L^-T with the inverse Cholesky factors of Z and X, formed once per
iteration.  A problem whose dense arrays would pass _MEMORY_LIMIT_BYTES is
refused before any is allocated.  Steps use a 0.98 fraction-to-boundary rule
with a shared primal/dual step length, backtracked geometrically so the
complementarity gap never increases across accepted steps.  Everything is
plain numpy; given identical inputs the iterate sequence is bitwise
reproducible.

Infeasibility is certified through the normalized dual iterate: whenever
X / tr(X) annihilates every F_i but pairs negatively with F0, no z can make
A(z) PSD, and that matrix is returned as the certificate.  Unboundedness is
declared when the objective passes 1e12 while the primal residual is tiny.
A candidate optimum must also pass a shifted-Cholesky feasibility check
(eigen-floor >= -PSD_TOL) on the assembled A(z) before it is called Optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .errors import InputError, ResourceLimitError
from .momentsdp import SdpProblem

OPTIMAL = "Optimal"
NEAR_OPTIMAL = "NearOptimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITER_LIMIT = "IterLimit"

# Eigen-floor an Optimal A(z) must clear, fraction-to-boundary step rule and
# the objective past which a primal-feasible iterate is called Unbounded.
PSD_TOL = 1e-7
STEP_FRACTION = 0.98
UNBOUNDED_THRESHOLD = 1e12


@dataclass
class SolverOptions:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-7
    max_iter: int = 200

    def __post_init__(self):
        if self.feas_tol <= 0 or self.gap_tol <= 0:
            raise InputError("tolerances must be positive")
        if self.max_iter < 0:
            raise InputError("max_iter must be >= 0")


@dataclass
class SdpSolution:
    y: List[float]
    objective: float
    status: str
    duality_gap: float
    min_eig: float
    iterations: int
    certificate: Optional[List[List[float]]] = None
    gap_history: List[float] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "y": list(self.y),
            "objective": self.objective,
            "status": self.status,
            "dualityGap": self.duality_gap,
            "minEig": self.min_eig,
            "iterations": self.iterations,
            "certificate": self.certificate,
        }


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
    jitter = jitter_base * max(abs(np.trace(matrix)) / max(n, 1), 1.0)
    for _ in range(11):
        try:
            return np.linalg.cholesky(matrix + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            jitter *= 100.0
    return None


def _step_to_boundary(inv_factor: np.ndarray, direction: np.ndarray) -> float:
    """Largest step keeping M + alpha*D PSD, where inv_factor = chol(M)^-1."""
    whitened = inv_factor @ direction @ inv_factor.T
    lam = float(np.linalg.eigvalsh(0.5 * (whitened + whitened.T))[0])
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


# Rows of the diagonal blocks in _tri_solve.  One solve with a lower factor
# of side 305 took 0.24 ms with 32 or 48 rows, 0.30 ms with 64, 0.43 ms with
# 16, and 2.1 ms as one np.linalg.solve (one BLAS thread, 2-CPU Xeon).  A
# factor of at most 32 rows is solved by one np.linalg.solve.
_TRI_BLOCK = 32


def _tri_solve(factor: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve L x = rhs, or L^T x = rhs if transpose, for lower-triangular L.

    Block forward (back) substitution: np.linalg.solve, an LU, runs only on
    the diagonal blocks of _TRI_BLOCK rows; the rest is matrix products.
    """
    n = factor.shape[0]
    x = np.array(rhs, dtype=float)
    starts = range(0, n, _TRI_BLOCK)
    if transpose:
        for s in reversed(starts):
            e = min(s + _TRI_BLOCK, n)
            x[s:e] = np.linalg.solve(factor[s:e, s:e].T, x[s:e])
            x[:s] -= factor[s:e, :s].T @ x[s:e]
    else:
        for s in starts:
            e = min(s + _TRI_BLOCK, n)
            x[s:e] = np.linalg.solve(factor[s:e, s:e], x[s:e])
            x[e:] -= factor[e:, s:e] @ x[s:e]
    return x


def _min_eig(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0])


def _centering_weight(mu_aff: float, mu: float) -> float:
    """Mehrotra's sigma = (mu_aff/mu)^3, clipped to [1e-10, 0.999].

    The ratio is clamped to 1 before cubing: the clip caps sigma below 1
    anyway, and a tiny mu (a gap that went non-positive) would overflow.
    """
    return float(np.clip(min(max(mu_aff, 0.0) / mu, 1.0) ** 3, 1e-10, 0.999))


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
# F_0, Z, X, A(z), the primal residual, the Cholesky factors of Z and X and
# their inverses, Z^-1, Z^-1 R X, the predictor's two directions, the
# corrector target and its own w, sum z_i F_i, dZ and dX, plus temporaries
# of the products.  tracemalloc peaks of 23 m^2 floats (side 400 and 600,
# 3 free coordinates) and 3.1 d^2 floats (side 30 and 45, 435 and 990 free
# coordinates) back the count.
_MXM_ARRAYS = 24
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
    starts = f.bounds[:-1]
    used = np.flatnonzero(starts < f.bounds[1:])
    for j0, j1, rows, small in blocks:
        left = zinv[:, rows].transpose(1, 0, 2) @ small
        k_blk = left @ big_x[rows]
        gathered = np.take(k_blk.reshape(j1 - j0, m * m), f.pos, axis=1)
        gathered *= f.coeff
        schur[used, j0:j1] = np.add.reduceat(gathered, starts[used], axis=1).T
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


def solve(problem: SdpProblem, options: Optional[SolverOptions] = None) -> SdpSolution:
    """Solve an SdpProblem; see the module docstring for the algorithm."""
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
        norm_f0 = float(np.linalg.norm(f_zero))
        norms_f = f.norms()
        norm_c = float(np.linalg.norm(c_vec))
    data_norm = float(np.max(np.r_[norm_f0, norm_c, norms_f]))  # NaN propagates
    if not np.isfinite(data_norm):
        raise InputError("SDP data too large: its norm overflows")
    block = max(1, _SCHUR_BLOCK_BYTES // (8 * max(m * m, f.coeff.size)))
    blocks = f.column_blocks(block)

    z = np.zeros(d)
    big_z = (1.0 + data_norm) * np.eye(m)
    big_x = (1.0 + data_norm) * np.eye(m)

    history: List[float] = []
    status = None
    certificate = None
    iters = 0
    rel_gap = np.inf

    for it in range(opts.max_iter + 1):
        assembled = f_zero + f.combine(z)
        residual_p = assembled - big_z
        residual_d = -c_vec - f.pair(big_x)
        gap = float(np.sum(big_z * big_x))
        p_obj = float(c_vec @ z)
        d_obj = float(np.sum(f_zero * big_x))
        rel_p = np.linalg.norm(residual_p) / (1.0 + norm_f0)
        rel_d = np.linalg.norm(residual_d) / (1.0 + norm_c)
        rel_gap = abs(gap) / (1.0 + abs(p_obj) + abs(d_obj))
        history.append(gap)

        if rel_p <= opts.feas_tol and rel_d <= opts.feas_tol and rel_gap <= opts.gap_tol:
            status = OPTIMAL
            break

        # dual improving ray => primal infeasible
        trace_x = float(np.trace(big_x))
        if trace_x > 0:
            x_hat = big_x / trace_x
            pairing = float(np.max(np.abs(f.pair(x_hat)) / (1.0 + norms_f)))
            drift = float(np.sum(f_zero * x_hat)) / (1.0 + norm_f0)
            if pairing <= 1e-9 and drift <= -1e-7:
                status = INFEASIBLE
                certificate = x_hat.tolist()
                break

        if p_obj > UNBOUNDED_THRESHOLD and rel_p <= 1e-5:
            status = UNBOUNDED
            break

        if it == opts.max_iter:
            break

        factor = _psd_factor(big_z, 1e-14)
        x_factor = _psd_factor(big_x, 1e-14)
        if factor is None or x_factor is None:
            raise np.linalg.LinAlgError("matrix not factorizable even with jitter")
        mu = max(gap, 1e-300) / m

        inv_factor = np.linalg.inv(factor)
        x_inv_factor = np.linalg.inv(x_factor)
        zinv = inv_factor.T @ inv_factor
        schur = _schur(f, blocks, zinv, big_x)
        schur = 0.5 * (schur + schur.T)
        schur_factor = _psd_factor(schur, 1e-13)
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
                dz = _tri_solve(schur_factor, _tri_solve(schur_factor, rhs), transpose=True)
            moved = f.combine(dz)
            d_big_z = residual_p + moved
            # sum_j dz_j K_j = Z^-1 (sum_j dz_j F_j) X
            d_big_x = w - zinv @ moved @ big_x
            d_big_x = 0.5 * (d_big_x + d_big_x.T)
            return dz, d_big_z, d_big_x

        # predictor
        dz_aff, dzm_aff, dxm_aff = direction(None)
        alpha_p = min(1.0, _step_to_boundary(inv_factor, dzm_aff))
        alpha_d = min(1.0, _step_to_boundary(x_inv_factor, dxm_aff))
        mu_aff = float(
            np.sum((big_z + alpha_p * dzm_aff) * (big_x + alpha_d * dxm_aff))
        ) / m
        sigma = _centering_weight(mu_aff, mu)

        # corrector
        c_target = sigma * mu * np.eye(m) - dzm_aff @ dxm_aff
        dz, d_big_z, d_big_x = direction(c_target)
        # free H and its factor now rather than while the next H is formed
        del schur, schur_factor

        # primal improving ray: a direction whose matrix movement is PSD while
        # the objective gains proves unboundedness outright once any feasible
        # point is at hand; ride it past the reporting threshold.
        dz_norm = float(np.linalg.norm(dz))
        if dz_norm > 0:
            d_hat = dz / dz_norm
            ray_gain = float(c_vec @ d_hat)
            if ray_gain > 1e-7 * (1.0 + norm_c):
                ray_dir = f.combine(d_hat)
                ray_floor = -1e-12 * (1.0 + float(np.linalg.norm(ray_dir)))
                here_floor = -PSD_TOL * (1.0 + norm_f0)
                if _min_eig(ray_dir) >= ray_floor and _min_eig(assembled) >= here_floor:
                    t = (1.01 * UNBOUNDED_THRESHOLD + abs(p_obj)) / ray_gain
                    z = z + t * d_hat
                    status = UNBOUNDED
                    break

        alpha = min(
            1.0,
            STEP_FRACTION * _step_to_boundary(inv_factor, d_big_z),
            STEP_FRACTION * _step_to_boundary(x_inv_factor, d_big_x),
        )
        # keep the complementarity gap non-increasing across accepted steps
        for _ in range(40):
            new_gap = float(np.sum((big_z + alpha * d_big_z) * (big_x + alpha * d_big_x)))
            if new_gap <= gap * (1.0 + 1e-9):
                break
            alpha *= 0.7

        z = z + alpha * dz
        big_z = big_z + alpha * d_big_z
        big_x = big_x + alpha * d_big_x
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

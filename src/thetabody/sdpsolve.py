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
once per iteration (Fujisawa-Kojima-Nakata, Math. Prog. 79, 1997).  H is
factored once per iteration, by Cholesky with escalating diagonal jitter, and
the factor serves the predictor and the corrector (least squares if no jitter
helps).  Steps use a 0.98
fraction-to-boundary rule with a shared primal/dual step length, backtracked
geometrically so the complementarity gap never increases across accepted
steps.  Everything is plain numpy; given identical inputs the iterate
sequence is bitwise reproducible.

Infeasibility is certified through the normalized dual iterate: whenever
X / tr(X) annihilates every F_i but pairs negatively with F0, no z can make
A(z) PSD, and that matrix is returned as the certificate.  Unboundedness is
declared when the objective passes 1e12 while the primal residual is tiny.
A candidate optimum must also pass a shifted-Cholesky feasibility check
(eigen-floor >= -psd_tol) on the assembled A(z) before it is called Optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .errors import InputError
from .momentsdp import SdpProblem

OPTIMAL = "Optimal"
NEAR_OPTIMAL = "NearOptimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITER_LIMIT = "IterLimit"


@dataclass
class SolverOptions:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-7
    max_iter: int = 200
    psd_tol: float = 1e-7
    step_fraction: float = 0.98
    unbounded_threshold: float = 1e12

    def __post_init__(self):
        if self.feas_tol <= 0 or self.gap_tol <= 0:
            raise InputError("tolerances must be positive")
        if self.max_iter < 0:
            raise InputError("max_iter must be >= 0")
        if not 0 < self.step_fraction < 1:
            raise InputError("step_fraction must lie in (0, 1)")


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
    n = matrix.shape[0]
    scale = max(abs(np.trace(matrix)) / max(n, 1), 1.0)
    jitter = 0.0
    for _ in range(12):
        try:
            return np.linalg.cholesky(matrix + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            jitter = jitter_base * scale if jitter == 0.0 else jitter * 100.0
    return None


def _step_to_boundary(factor: np.ndarray, direction: np.ndarray) -> float:
    """Largest step keeping M + alpha*D PSD, where factor = chol(M)."""
    half = np.linalg.solve(factor, direction)
    whitened = np.linalg.solve(factor, half.T).T
    lam = float(np.linalg.eigvalsh(0.5 * (whitened + whitened.T))[0])
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _min_eig(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0])


def _centering_weight(mu_aff: float, mu: float) -> float:
    """Mehrotra's sigma = (mu_aff/mu)^3, clipped to [1e-10, 0.999].

    The ratio is clamped to 1 before cubing: the clip caps sigma below 1
    anyway, and a tiny mu (a gap that went non-positive) would overflow.
    """
    return float(np.clip(min(max(mu_aff, 0.0) / mu, 1.0) ** 3, 1e-10, 0.999))


# Byte budget of one column block of the Schur formation: the dense stacks of
# F_j and of K_j = Z^-1 F_j X for a block, and the entries gathered from
# them, each fit in it (a block has at least one column).  It stays below
# glibc's initial 128 KiB mmap threshold, so block buffers come from the heap
# rather than being mapped and faulted in anew for every block.  Cut K5
# level 2 (side 56) solved in 365 ms with it and in 559 ms with 512 KiB under
# a fixed 128 KiB threshold, 337 and 364 ms under the adaptive default (one
# BLAS thread on a 2-CPU Xeon).
_SCHUR_BLOCK_BYTES = 120 * 1024


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


def _schur(f: _SparseF, zinv: np.ndarray, big_x: np.ndarray, block: int) -> np.ndarray:
    """H_ij = <F_i, Z^-1 F_j X>, filled `block` columns j at a time.

    Each block scatters its F_j into a dense stack, forms K_j = Z^-1 F_j X
    with two matrix products and gathers the entries of K_j that some F_i
    touches, summed per i.  Rows of F_i without entries stay zero.
    """
    m, d = f.m, f.d
    schur = np.zeros((d, d))
    starts = f.bounds[:-1]
    used = np.flatnonzero(starts < f.bounds[1:])
    for j0 in range(0, d, block):
        j1 = min(j0 + block, d)
        lo, hi = f.bounds[j0], f.bounds[j1]
        if lo == hi:
            continue
        f_blk = np.zeros((j1 - j0, m * m))
        f_blk[f.l[lo:hi] - j0, f.pos[lo:hi]] = f.coeff[lo:hi]
        k_blk = (zinv @ f_blk.reshape(-1, m, m)).reshape(-1, m) @ big_x
        gathered = k_blk.reshape(j1 - j0, m * m)[:, f.pos] * f.coeff
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

    free = sorted(l for l in range(problem.y_dim) if l not in problem.fixed)
    d = len(free)

    f_zero, f = _split_data(problem, free)
    c_vec = np.array([problem.objective.get(l, 0.0) for l in free])
    const = sum(problem.objective.get(l, 0.0) * v for l, v in problem.fixed.items())

    def finish(z, status, gap, iters, certificate=None, history=None):
        assembled = f_zero + f.combine(z)
        min_eig = _min_eig(assembled)
        if status == OPTIMAL and min_eig < -opts.psd_tol:
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
        if min_eig >= -opts.psd_tol:
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

        if p_obj > opts.unbounded_threshold and rel_p <= 1e-5:
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
        zinv = inv_factor.T @ inv_factor
        schur = _schur(f, zinv, big_x, block)
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
                dz = np.linalg.solve(schur_factor.T, np.linalg.solve(schur_factor, rhs))
            moved = f.combine(dz)
            d_big_z = residual_p + moved
            # sum_j dz_j K_j = Z^-1 (sum_j dz_j F_j) X
            d_big_x = w - zinv @ moved @ big_x
            d_big_x = 0.5 * (d_big_x + d_big_x.T)
            return dz, d_big_z, d_big_x

        # predictor
        dz_aff, dzm_aff, dxm_aff = direction(None)
        alpha_p = min(1.0, _step_to_boundary(factor, dzm_aff))
        alpha_d = min(1.0, _step_to_boundary(x_factor, dxm_aff))
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
                here_floor = -opts.psd_tol * (1.0 + norm_f0)
                if _min_eig(ray_dir) >= ray_floor and _min_eig(assembled) >= here_floor:
                    t = (1.01 * opts.unbounded_threshold + abs(p_obj)) / ray_gain
                    z = z + t * d_hat
                    status = UNBOUNDED
                    break

        alpha = min(
            1.0,
            opts.step_fraction * _step_to_boundary(factor, d_big_z),
            opts.step_fraction * _step_to_boundary(x_factor, d_big_x),
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

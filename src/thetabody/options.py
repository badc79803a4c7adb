"""The solver's settings, in a leaf module that imports neither numpy nor
the moment-template code: a command reads its solver flags into
SolverOptions before it knows whether any SDP will be solved."""

from __future__ import annotations

import math

from .errors import InputError


# Least tolerance accepted.  Below what float residuals reach, the solver
# keeps stepping after convergence and drifts: both theta models of the path
# P3 end IterLimit at 1e-16, far from their optimum 2.  At 1e-12 the level-2
# stable C5, C9 and Petersen and cut K5 and C7 SDPs end Optimal in 14-18
# iterations.
MIN_TOL = 1e-12


class SolverOptions:
    """Stopping rules of sdpsolve.solve."""

    def __init__(self, feas_tol: float = 1e-8, gap_tol: float = 1e-7, max_iter: int = 200):
        if not all(math.isfinite(t) and t >= MIN_TOL for t in (feas_tol, gap_tol)):
            raise InputError(f"tolerances must be finite and at least {MIN_TOL:g}")
        if max_iter < 1:
            raise InputError("max_iter must be >= 1")
        self.feas_tol = feas_tol
        self.gap_tol = gap_tol
        self.max_iter = max_iter

"""The solver's settings, in a leaf module that imports neither numpy nor
the moment-template code: a command reads its solver flags into
SolverOptions before it knows whether any SDP will be solved."""

from __future__ import annotations

import math

from .errors import InputError


class SolverOptions:
    """Stopping rules of sdpsolve.solve."""

    def __init__(self, feas_tol: float = 1e-8, gap_tol: float = 1e-7, max_iter: int = 200):
        if not all(math.isfinite(t) and t > 0 for t in (feas_tol, gap_tol)):
            raise InputError("tolerances must be finite and positive")
        if max_iter < 1:
            raise InputError("max_iter must be >= 1")
        self.feas_tol = feas_tol
        self.gap_tol = gap_tol
        self.max_iter = max_iter

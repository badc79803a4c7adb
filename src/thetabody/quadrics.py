"""Convex quadrics in the degree-2 part of an ideal, and the membership test
they induce for the first theta body.

Every polynomial of degree <= 2 is written q(x) = x^T A x + b^T x + c with A
symmetric.  If q lies in the ideal of a set V and A is positive semidefinite,
then q is convex and vanishes on V, hence q <= 0 on conv(V) — and the same
bound holds on the whole first theta body: for any moment vector y of the
relaxation, 0 = L_y(q) >= q(L_y(x)) by the Schur complement of the moment
matrix.  Convex quadrics in the degree-2 slice are therefore exact separators:
a query point z with q(z) > 0 is certified outside.

The slice is handled exactly (rational row reduction); the optimization over
it is a small SDP.  Since a PSD matrix with zero trace is zero, the side
condition "A PSD, A != 0" is normalized to "trace A = 1" by an exact change of
basis of the coefficient space, and directions with A = 0 (affine-linear
members of the slice) are split off beforehand: they are the recession
directions of the section, so the supremum of q(z) is finite exactly when all
of them vanish at z — otherwise +-g is returned as an improving ray.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError, SolverError
from .exactalg import (
    Monomial,
    PointSet,
    display_key,
    format_rational,
    nullspace,
    parse_polynomial,
    parse_rational,
    rational_rref,
)
from .momentsdp import SdpProblem
from .sdpsolve import SolverOptions, solve

BOUNDARY_TOL = 1e-7

INSIDE = "Inside"
OUTSIDE = "Outside"
BORDERLINE = "Borderline"


def _deg2_monomials(dim: int) -> List[Monomial]:
    """1, x1..xn, then the degree-2 monomials, in display order."""
    monos = [Monomial.unit(dim)]
    monos += [Monomial.variable(i, dim) for i in range(1, dim + 1)]
    quads = []
    for i in range(dim):
        for j in range(i, dim):
            exps = [0] * dim
            exps[i] += 1
            exps[j] += 1
            quads.append(Monomial(tuple(exps)))
    quads.sort(key=display_key)
    return monos + quads


@dataclass(frozen=True)
class Quadric:
    """q(x) = x^T A x + b^T x + c over the rationals, A symmetric."""

    a: Tuple[Tuple[Fraction, ...], ...]
    b: Tuple[Fraction, ...]
    c: Fraction

    def __post_init__(self):
        n = len(self.b)
        if len(self.a) != n or any(len(row) != n for row in self.a):
            raise InputError("quadric matrix shape does not match b")
        for i in range(n):
            for j in range(n):
                if self.a[i][j] != self.a[j][i]:
                    raise InputError("quadric matrix must be symmetric")

    @property
    def dim(self) -> int:
        return len(self.b)

    def trace(self) -> Fraction:
        return sum(self.a[i][i] for i in range(self.dim))

    def quadratic_is_zero(self) -> bool:
        return all(v == 0 for row in self.a for v in row)

    def is_zero(self) -> bool:
        return self.quadratic_is_zero() and all(v == 0 for v in self.b) and not self.c

    def evaluate(self, point: Sequence) -> Fraction:
        z = [parse_rational(v) for v in point]
        if len(z) != self.dim:
            raise InputError(f"point has {len(z)} coordinates, expected {self.dim}")
        quad = sum(
            self.a[i][j] * z[i] * z[j]
            for i in range(self.dim)
            for j in range(self.dim)
        )
        return quad + sum(bi * zi for bi, zi in zip(self.b, z)) + self.c

    @staticmethod
    def from_polynomial(poly: Mapping[Monomial, object], dim: int) -> "Quadric":
        a = [[Fraction(0)] * dim for _ in range(dim)]
        b = [Fraction(0)] * dim
        c = Fraction(0)
        for mono, coeff in poly.items():
            coeff = parse_rational(coeff)
            if mono.degree == 0:
                c += coeff
            elif mono.degree == 1:
                b[mono.exponents.index(1)] += coeff
            elif mono.degree == 2:
                support = [i for i, e in enumerate(mono.exponents) if e]
                if len(support) == 1:
                    a[support[0]][support[0]] += coeff
                else:
                    i, j = support
                    a[i][j] += coeff / 2
                    a[j][i] += coeff / 2
            else:
                raise InputError(f"term {mono} has degree {mono.degree} > 2")
        return Quadric(tuple(tuple(row) for row in a), tuple(b), c)

    def to_polynomial(self) -> Dict[Monomial, Fraction]:
        dim = self.dim
        out: Dict[Monomial, Fraction] = {}
        for i in range(dim):
            for j in range(i, dim):
                coeff = self.a[i][j] if i == j else 2 * self.a[i][j]
                if coeff:
                    exps = [0] * dim
                    exps[i] += 1
                    exps[j] += 1
                    out[Monomial(tuple(exps))] = coeff
        for i, bi in enumerate(self.b):
            if bi:
                out[Monomial.variable(i + 1, dim)] = bi
        if self.c:
            out[Monomial.unit(dim)] = self.c
        return out

    def __str__(self) -> str:
        terms = sorted(self.to_polynomial().items(), key=lambda kv: display_key(kv[0]))
        if not terms:
            return "0"
        parts = []
        for mono, coeff in terms:
            sign = "-" if coeff < 0 else ("+" if parts else "")
            mag = abs(coeff)
            if mono.degree == 0:
                body = format_rational(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{format_rational(mag)}*{mono}"
            parts.append(f"{sign} {body}".strip() if parts else f"{sign}{body}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "A": [[format_rational(v) for v in row] for row in self.a],
            "b": [format_rational(v) for v in self.b],
            "c": format_rational(self.c),
            "polynomial": str(self),
        }


def _quadric_from_vector(vec: Sequence[Fraction], monos: List[Monomial], dim: int) -> Quadric:
    return Quadric.from_polynomial(
        {m: v for m, v in zip(monos, vec) if v}, dim
    )


def _vector_from_quadric(q: Quadric, monos: List[Monomial]) -> List[Fraction]:
    poly = q.to_polynomial()
    return [poly.get(m, Fraction(0)) for m in monos]


@dataclass
class QuadricSpace:
    """A linear space of polynomials of degree <= 2 (e.g. an ideal's slice).

    The basis is kept row-reduced over the monomial coordinates (display
    order: 1, x1..xn, then degree 2), so construction is deterministic.
    """

    ambient_dim: int
    basis: List[Quadric] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def member(self, coefficients: Sequence) -> Quadric:
        coeffs = [parse_rational(v) for v in coefficients]
        if len(coeffs) != self.dimension:
            raise InputError(
                f"{len(coeffs)} coefficients given, space has dimension {self.dimension}"
            )
        monos = _deg2_monomials(self.ambient_dim)
        vec = [Fraction(0)] * len(monos)
        for c, q in zip(coeffs, self.basis):
            for k, v in enumerate(_vector_from_quadric(q, monos)):
                vec[k] += c * v
        return _quadric_from_vector(vec, monos, self.ambient_dim)

    def to_json(self) -> dict:
        return {
            "ambientDim": self.ambient_dim,
            "dimension": self.dimension,
            "basis": [q.to_json() for q in self.basis],
        }


def _space_from_vectors(vectors: List[List[Fraction]], dim: int) -> QuadricSpace:
    monos = _deg2_monomials(dim)
    reduced, _ = rational_rref(vectors)
    basis = [_quadric_from_vector(v, monos, dim) for v in reduced]
    return QuadricSpace(ambient_dim=dim, basis=basis)


def quadric_space_from_points(points) -> QuadricSpace:
    """All polynomials of degree <= 2 vanishing on the point set.

    Computed as the nullspace of the evaluation matrix of the degree-<=2
    monomials on the set, entirely in rational arithmetic.
    """
    ps = PointSet.coerce(points)
    monos = _deg2_monomials(ps.dim)
    rows = [[m.evaluate(p) for m in monos] for p in ps.points]
    return _space_from_vectors(nullspace(rows, len(monos)), ps.dim)


def quadric_space_from_generators(dim: int, generators) -> QuadricSpace:
    """Degree-<=2 slice spanned by the generators and their shifts.

    Each generator may be a polynomial string or a {Monomial: coefficient}
    mapping of degree <= 2.  Degree-<=1 generators g also contribute x_i * g
    (all still of degree <= 2); degree-2 generators contribute themselves.
    Higher-degree generators are rejected.  An empty generator list is the
    zero ideal: the slice is {0} and the relaxation is all of R^n.
    """
    monos = _deg2_monomials(dim)
    index = {m: k for k, m in enumerate(monos)}
    vectors: List[List[Fraction]] = []

    def add(poly: Mapping[Monomial, Fraction]):
        vec = [Fraction(0)] * len(monos)
        for m, coeff in poly.items():
            if m not in index:
                raise InputError(f"generator term {m} has degree > 2")
            vec[index[m]] = parse_rational(coeff)
        if any(vec):
            vectors.append(vec)

    for gen in generators:
        poly = (
            parse_polynomial(gen, dim)
            if isinstance(gen, str)
            else {m: parse_rational(c) for m, c in gen.items()}
        )
        if not poly:
            raise InputError("the zero polynomial is not a usable generator")
        degree = max(m.degree for m in poly)
        if degree > 2:
            raise InputError("generators must have degree <= 2")
        add(poly)
        if degree <= 1:
            for i in range(1, dim + 1):
                xi = Monomial.variable(i, dim)
                add({m * xi: c for m, c in poly.items()})
    return _space_from_vectors(vectors, dim)


def _is_psd_exact(a: Sequence[Sequence[Fraction]]) -> bool:
    """Exact PSD test for a symmetric rational matrix (symmetric elimination)."""
    n = len(a)
    work = [[Fraction(v) for v in row] for row in a]
    for k in range(n):
        if work[k][k] < 0:
            return False
        if work[k][k] == 0:
            if any(work[k][j] != 0 for j in range(k, n)):
                return False
            continue
        for i in range(k + 1, n):
            if work[i][k] == 0:
                continue
            factor = work[i][k] / work[k][k]
            for j in range(k, n):
                work[i][j] -= factor * work[k][j]
    return True


def _linear_kernel(space: QuadricSpace) -> List[Quadric]:
    """Basis of the affine-linear members (quadratic part zero) of the space."""
    n = space.ambient_dim
    rows = [[q.a[i][j] for q in space.basis] for i in range(n) for j in range(i, n)]
    return [space.member(c) for c in nullspace(rows, space.dimension)]


def _trace_split(space: QuadricSpace) -> Optional[Tuple[Quadric, List[Quadric]]]:
    """Rewrite the space as (trace-1 element, trace-0 direction basis).

    Returns None when the trace functional vanishes identically, in which
    case every PSD member has zero quadratic part.  The directions are
    reduced modulo the affine-linear kernel: directions with equal quadratic
    part differ by a kernel element, which changes neither the PSD section
    nor (once the kernel is known to vanish at the query) any objective, so
    one representative per quadratic part suffices and no direction has a
    zero quadratic part.  With trace pinned to 0, no direction is PSD either,
    which keeps every sweep over the section bounded.
    """
    traces = [q.trace() for q in space.basis]
    lead = next((i for i, t in enumerate(traces) if t != 0), None)
    if lead is None:
        return None
    unit_coeffs = [Fraction(0)] * space.dimension
    unit_coeffs[lead] = 1 / traces[lead]
    unit = space.member(unit_coeffs)
    traceless = []
    for i, q in enumerate(space.basis):
        if i == lead:
            continue
        coeffs = [Fraction(0)] * space.dimension
        coeffs[i] = Fraction(1)
        coeffs[lead] = -traces[i] / traces[lead]
        traceless.append(space.member(coeffs))
    if not traceless:
        return unit, []
    # quotient by the kernel: row-reduce the quadratic parts with an identity
    # tail so each surviving row keeps a preimage in span(traceless)
    n = space.ambient_dim
    width = n * (n + 1) // 2
    rows = []
    for k, q in enumerate(traceless):
        vec = [q.a[i][j] for i in range(n) for j in range(i, n)]
        vec += [Fraction(int(k == t)) for t in range(len(traceless))]
        rows.append(vec)
    reduced, pivots = rational_rref(rows)
    monos = _deg2_monomials(n)
    traceless_vectors = [_vector_from_quadric(q, monos) for q in traceless]
    rest = []
    for row, pivot in zip(reduced, pivots):
        if pivot >= width:
            break  # pure-kernel combination; quadratic part is zero
        total = [Fraction(0)] * len(monos)
        for c, vec in zip(row[width:], traceless_vectors):
            if c:
                for idx, v in enumerate(vec):
                    total[idx] += c * v
        rest.append(_quadric_from_vector(total, monos, n))
    return unit, rest


def _round_quadric(a_rows, b_row, c_val, dim: int) -> Quadric:
    """Rational snapshot of float quadric data (for readable certificates)."""

    def snap(x) -> Fraction:
        return Fraction(float(x)).limit_denominator(10**9)

    a = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            v = snap((a_rows[i][j] + a_rows[j][i]) / 2.0)
            a[i][j] = v
    # resymmetrize exactly
    for i in range(dim):
        for j in range(i + 1, dim):
            v = (a[i][j] + a[j][i]) / 2
            a[i][j] = a[j][i] = v
    return Quadric(
        tuple(tuple(row) for row in a),
        tuple(snap(v) for v in b_row),
        snap(c_val),
    )


def _combine(space: QuadricSpace, unit: Quadric, rest: List[Quadric], weights) -> Quadric:
    """unit + sum_i weights[i] * rest[i] with float weights, snapped rational."""
    dim = space.ambient_dim
    a = [[float(unit.a[i][j]) for j in range(dim)] for i in range(dim)]
    b = [float(v) for v in unit.b]
    c = float(unit.c)
    for w, q in zip(weights, rest):
        for i in range(dim):
            for j in range(dim):
                a[i][j] += w * float(q.a[i][j])
        for i in range(dim):
            b[i] += w * float(q.b[i])
        c += w * float(q.c)
    return _round_quadric(a, b, c, dim)


def _section_problem(
    unit: Quadric, rest: List[Quadric], objective: Dict[int, float]
) -> SdpProblem:
    """SDP data for A(u) = A(unit) + sum u_i A(rest_i) PSD, coordinate 0 pinned."""
    n = unit.dim
    y_dim = 1 + len(rest)
    cells: Dict[Tuple[int, int], Dict[int, float]] = {}
    for i in range(n):
        for j in range(i, n):
            vec: Dict[int, float] = {}
            if unit.a[i][j]:
                vec[0] = float(unit.a[i][j])
            for k, q in enumerate(rest, start=1):
                if q.a[i][j]:
                    vec[k] = float(q.a[i][j])
            if vec:
                cells[(i, j)] = vec
    labels = ["traceUnit"] + [f"s{i}" for i in range(1, y_dim)]
    return SdpProblem(
        side=n,
        y_dim=y_dim,
        cells=cells,
        objective=objective,
        fixed={0: 1.0},
        y_labels=labels,
    )


@dataclass
class ConvexQuadricReport:
    """Existence of a member with PSD, nonzero quadratic part."""

    exists: bool
    margin: Optional[float]
    definite: Optional[bool]
    verified: bool
    certificate: Optional[Quadric]
    interval: Optional[Tuple[float, float]]
    extremes: Optional[Tuple[Quadric, Quadric]]
    status: str
    detail: str

    def to_json(self) -> dict:
        return {
            "exists": self.exists,
            "margin": self.margin,
            "definite": self.definite,
            "verified": self.verified,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "interval": list(self.interval) if self.interval else None,
            "extremes": [q.to_json() for q in self.extremes] if self.extremes else None,
            "status": self.status,
            "detail": self.detail,
        }


def has_convex_quadric(
    space: QuadricSpace, options: Optional[SolverOptions] = None
) -> ConvexQuadricReport:
    """Does the space contain a quadric with PSD, nonzero quadratic part?

    Normalizes to trace 1 (PSD and nonzero implies positive trace) and
    maximizes s with A(u) - s*I PSD; the optimum is the best smallest
    eigenvalue over the section, so existence is margin >= 0 up to solver
    tolerance.  A returned certificate is re-checked in exact arithmetic
    after rational rounding; `verified` records that check.  When the
    trace-0 complement is one-dimensional the PSD section is an interval,
    and both extreme quadrics are reported.
    """
    split = _trace_split(space)
    if split is None:
        return ConvexQuadricReport(
            exists=False,
            margin=None,
            definite=None,
            verified=True,
            certificate=None,
            interval=None,
            extremes=None,
            status="Decided",
            detail="every member has a traceless (hence zero) PSD part",
        )
    unit, rest = split
    if not rest:
        ok = _is_psd_exact(unit.a)
        return ConvexQuadricReport(
            exists=ok,
            margin=None,
            definite=None,
            verified=True,
            certificate=unit if ok else None,
            interval=None,
            extremes=None,
            status="Decided",
            detail="zero-dimensional section decided exactly",
        )

    n = space.ambient_dim
    opts = options or SolverOptions()
    # slack coordinate s: maximize s with A(u) - s I PSD
    base = _section_problem(unit, rest, objective={})
    y_dim = base.y_dim + 1
    cells = {key: dict(vec) for key, vec in base.cells.items()}
    for i in range(n):
        cell = cells.setdefault((i, i), {})
        cell[y_dim - 1] = cell.get(y_dim - 1, 0.0) - 1.0
    problem = SdpProblem(
        side=n,
        y_dim=y_dim,
        cells=cells,
        objective={y_dim - 1: 1.0},
        fixed={0: 1.0},
        y_labels=(base.y_labels or []) + ["slack"],
    )
    sol = solve(problem, opts)
    if sol.status not in ("Optimal", "NearOptimal"):
        raise SolverError(f"convex-quadric search ended with status {sol.status}")
    margin = sol.objective
    weights = list(sol.y[1 : base.y_dim])
    certificate = _combine(space, unit, rest, weights) if margin >= -BOUNDARY_TOL else None
    verified = bool(certificate and _is_psd_exact(certificate.a))

    interval = None
    extremes = None
    if len(rest) == 1 and margin >= -BOUNDARY_TOL:
        ends = []
        for direction in (-1.0, 1.0):
            side_sol = solve(_section_problem(unit, rest, {1: direction}), opts)
            if side_sol.status not in ("Optimal", "NearOptimal"):
                raise SolverError(
                    f"section sweep ended with status {side_sol.status}"
                )
            ends.append(direction * side_sol.objective)
        lo, hi = min(ends), max(ends)
        interval = (lo, hi)
        extremes = (
            _combine(space, unit, rest, [lo]),
            _combine(space, unit, rest, [hi]),
        )

    return ConvexQuadricReport(
        exists=margin >= -BOUNDARY_TOL,
        margin=margin,
        definite=margin > BOUNDARY_TOL,
        verified=verified,
        certificate=certificate,
        interval=interval,
        extremes=extremes,
        status=sol.status,
        detail="margin is the best smallest eigenvalue over the trace-1 section",
    )


@dataclass
class MembershipReport:
    """Outcome of separating a query point with convex quadrics."""

    status: str
    supremum: Optional[float]
    certificate: Optional[Quadric]
    ray: Optional[Quadric]
    solver_status: Optional[str]
    detail: str

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "supremum": self.supremum,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "ray": self.ray.to_json() if self.ray else None,
            "solverStatus": self.solver_status,
            "detail": self.detail,
        }


def th1_membership(
    space: QuadricSpace,
    query: Sequence,
    options: Optional[SolverOptions] = None,
    boundary_tol: float = BOUNDARY_TOL,
) -> MembershipReport:
    """Test a point against the convex quadrics of the space.

    Outside means some member with PSD quadratic part (or an affine-linear
    member, returned as a ray) is positive at the point — a certificate that
    the point lies outside the first theta body of any ideal whose degree-2
    part contains the space.  Inside means no separator exists in the space;
    Borderline means the supremum is within tolerance of zero, as happens on
    the variety itself.
    """
    z = [parse_rational(v) for v in query]
    if len(z) != space.ambient_dim:
        raise InputError(
            f"query has {len(z)} coordinates, expected {space.ambient_dim}"
        )
    if space.dimension == 0:
        return MembershipReport(
            status=INSIDE,
            supremum=None,
            certificate=None,
            ray=None,
            solver_status=None,
            detail="the space is zero, so nothing separates",
        )
    for g in _linear_kernel(space):
        value = g.evaluate(z)
        if value != 0:
            ray = g if value > 0 else Quadric(
                tuple(tuple(-v for v in row) for row in g.a),
                tuple(-v for v in g.b),
                -g.c,
            )
            return MembershipReport(
                status=OUTSIDE,
                supremum=None,
                certificate=None,
                ray=ray,
                solver_status=None,
                detail="an affine-linear member is nonzero at the query, "
                "so the section supremum is +infinity",
            )
    split = _trace_split(space)
    if split is None:
        return MembershipReport(
            status=INSIDE,
            supremum=None,
            certificate=None,
            ray=None,
            solver_status=None,
            detail="no member has a nonzero PSD part and every affine-linear "
            "member vanishes at the query",
        )
    unit, rest = split
    values = [float(q.evaluate(z)) for q in rest]
    constant = float(unit.evaluate(z))
    if not rest:
        sup = constant
        ok = _is_psd_exact(unit.a)
        if not ok:
            return MembershipReport(
                status=INSIDE,
                supremum=None,
                certificate=None,
                ray=None,
                solver_status=None,
                detail="the only trace-1 member is not PSD; no separator exists",
            )
        solver_status = None
    else:
        objective = {k + 1: v for k, v in enumerate(values) if v}
        problem = _section_problem(unit, rest, objective)
        sol = solve(problem, options or SolverOptions())
        if sol.status == "Infeasible":
            return MembershipReport(
                status=INSIDE,
                supremum=None,
                certificate=None,
                ray=None,
                solver_status=sol.status,
                detail="the PSD section is empty; no separator exists",
            )
        if sol.status not in ("Optimal", "NearOptimal"):
            raise SolverError(f"membership SDP ended with status {sol.status}")
        sup = sol.objective + constant
        solver_status = sol.status
    if sup > boundary_tol:
        weights = list(sol.y[1:]) if rest else []
        certificate = _combine(space, unit, rest, weights)
        status = OUTSIDE
    elif sup < -boundary_tol:
        certificate = None
        status = INSIDE
    else:
        weights = list(sol.y[1:]) if rest else []
        certificate = _combine(space, unit, rest, weights)
        status = BORDERLINE
    return MembershipReport(
        status=status,
        supremum=sup,
        certificate=certificate,
        ray=None,
        solver_status=solver_status,
        detail="supremum of q(z) over members with PSD part and trace 1",
    )

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
it is a small SDP, built and passed to momentsdp.solve only when a query needs
it.  Since a PSD matrix with zero trace is zero, the side condition "A PSD,
A != 0" is normalized to "trace A = 1" by an exact change of basis of the
coefficient space, and directions with A = 0 (affine-linear members of the
slice) are split off beforehand: they are the recession directions of the
section, so the supremum of q(z) is finite exactly when all of them vanish at
z — otherwise +-g is returned as an improving ray.

A space is stored only as the row-reduced coefficient vectors of a basis over
the monomials 1, x1..xn, x_i x_j (display order).  Every linear operation
works on those vectors; a Quadric is built only for a result that leaves the
module: a basis element, a member, a certificate, an extreme or a ray.  A
membership query evaluates the vectors it needs in integers: each vector is
scaled over the lcm of its denominators once per space, and the monomials at
the query over the square of the lcm of the query's denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError, ResourceLimitError, SolverError
from .exactalg import (
    Monomial,
    PointSet,
    _Frozen,
    _Record,
    _over_lcm,
    _scaled_coordinates,
    display_key,
    format_rational,
    nullspace,
    parse_integer,
    parse_polynomial,
    parse_rational,
    rational_rref,
    to_float,
)
from .options import SolverOptions

if TYPE_CHECKING:
    from .sdpsolve import SdpSolution

BOUNDARY_TOL = 1e-7

# Largest ambient dimension of a degree-2 slice.  On one core of a 2-CPU
# Xeon, quadric_space_from_points took 0.66 s on 16 random rational points in
# dimension 16, 1.0 s on 17 in dimension 17 and 29.9 s (79 MB) on one point
# in dimension 40; from generators, _deg2_monomials alone holds O(n^3) ints.
MAX_SLICE_DIM = 16

INSIDE = "Inside"
OUTSIDE = "Outside"
BORDERLINE = "Borderline"


def _slice_dim(dim: int) -> int:
    """dim, or a ResourceLimitError when it passes MAX_SLICE_DIM."""
    if dim > MAX_SLICE_DIM:
        raise ResourceLimitError(f"a degree-2 slice in {dim} variables passes the cap {MAX_SLICE_DIM}")
    return dim


@lru_cache(maxsize=None)
def _deg2_monomials(dim: int) -> Tuple[Monomial, ...]:
    """1, x1..xn, then the degree-2 monomials, in display order."""
    monos = [Monomial.unit(dim)]
    monos += [Monomial.variable(i, dim) for i in range(1, dim + 1)]
    quads = [
        monos[i] * monos[j] for i in range(1, dim + 1) for j in range(i, dim + 1)
    ]
    return tuple(monos + sorted(quads, key=display_key))


class Quadric(_Frozen):
    """q(x) = x^T A x + b^T x + c over the rationals, A symmetric."""

    _fields = ("a", "b", "c")

    def __init__(self, a: Tuple[Tuple[Fraction, ...], ...], b: Tuple[Fraction, ...], c: Fraction):
        n = len(b)
        if len(a) != n or any(len(row) != n for row in a):
            raise InputError("quadric matrix shape does not match b")
        for i in range(n):
            for j in range(n):
                if a[i][j] != a[j][i]:
                    raise InputError("quadric matrix must be symmetric")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

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
        return _quadric(_coefficients(poly, dim), dim)

    def to_polynomial(self) -> Dict[Monomial, Fraction]:
        """The nonzero terms, in display order."""
        vec = [self.c, *self.b] + [Fraction(0)] * (len(_deg2_monomials(self.dim)) - 1 - self.dim)
        for i, j, k, scale in _quadratic_layout(self.dim):
            vec[k] = self.a[i][j] / scale
        return {m: v for m, v in zip(_deg2_monomials(self.dim), vec) if v}

    def __str__(self) -> str:
        terms = self.to_polynomial().items()
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


@lru_cache(maxsize=None)
def _quadratic_layout(dim: int) -> Tuple[Tuple[int, int, int, Fraction], ...]:
    """(i, j, k, scale) for each entry A[i][j], i <= j, in row-major order.

    A[i][j] = scale * v[k] for a coefficient vector v over _deg2_monomials:
    k is the position of x_i x_j, and the scale halves the off-diagonal
    entries.  From n = 3 on row-major order differs from display order;
    the RREF pivots and the SDP cells follow row-major order.
    """
    monos = _deg2_monomials(dim)
    index = {m: k for k, m in enumerate(monos)}
    return tuple(
        (i, j, index[monos[i + 1] * monos[j + 1]], Fraction(1) if i == j else Fraction(1, 2))
        for i in range(dim)
        for j in range(i, dim)
    )


def _coefficients(poly: Mapping[Monomial, object], dim: int) -> List[Fraction]:
    """The coefficient vector over _deg2_monomials(dim) of a {Monomial: coeff}
    polynomial of degree <= 2."""
    monos = _deg2_monomials(dim)
    vec = [Fraction(0)] * len(monos)
    for m, coeff in poly.items():
        if m not in monos:
            raise InputError(f"term {m} is not a monomial of degree <= 2 in {dim} variables")
        vec[monos.index(m)] = parse_rational(coeff)
    return vec


def _quadric(vec: Sequence[Fraction], dim: int) -> Quadric:
    """The Quadric with coefficient vector vec over _deg2_monomials(dim)."""
    a = [[Fraction(0)] * dim for _ in range(dim)]
    for i, j, k, scale in _quadratic_layout(dim):
        a[i][j] = a[j][i] = scale * vec[k]
    return Quadric(tuple(tuple(row) for row in a), tuple(vec[1 : dim + 1]), vec[0])


def _span(coeffs: Sequence[Fraction], vectors: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """sum_i coeffs[i] * vectors[i] for one or more vectors of equal length.

    Most coefficients and entries of a slice basis are zero: skip their
    products.
    """
    total = [Fraction(0)] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        if c:
            for k, v in enumerate(vec):
                if v:
                    total[k] += c * v
    return total


class QuadricSpace:
    """A linear space of polynomials of degree <= 2 (e.g. an ideal's slice).

    Stored as the row-reduced coefficient vectors of a basis over the
    monomials of _deg2_monomials (display order: 1, x1..xn, then degree 2),
    so construction is deterministic.  `basis` gives them as Quadrics.  The
    kernel, the trace split, their integer forms and the section's SDP cells
    are kept from first use, and so is the solve of the section SDP with an
    empty objective, with the member its weights pick (None unless the solve
    is conclusive), once per SolverOptions values: th1_membership poses that
    SDP at every query where all trace-0 directions vanish (the points of the
    variety), and neither depends on the query.  Do not change the vectors.
    """

    def __init__(self, ambient_dim: int, vectors: Optional[List[List[Fraction]]] = None):
        self.ambient_dim = ambient_dim
        self.vectors = [] if vectors is None else vectors
        self._zero_objective_solves: Dict[tuple, Tuple[SdpSolution, Optional[Quadric]]] = {}

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @property
    def basis(self) -> List[Quadric]:
        return [_quadric(v, self.ambient_dim) for v in self.vectors]

    def member(self, coefficients: Sequence) -> Quadric:
        coeffs = [parse_rational(v) for v in coefficients]
        if len(coeffs) != self.dimension:
            raise InputError(
                f"{len(coeffs)} coefficients given, space has dimension {self.dimension}"
            )
        n = self.ambient_dim
        if not coeffs:
            return _quadric([Fraction(0)] * len(_deg2_monomials(n)), n)
        return _quadric(_span(coeffs, self.vectors), n)

    _kernel = cached_property(lambda self: _linear_kernel(self))
    _split = cached_property(lambda self: _trace_split(self))
    # the kernel and [unit] + rest as integer forms (see _values_at), and the
    # float SDP cells of the section; read only when _split is not None
    _kernel_ints = cached_property(lambda self: _integer_forms(self._kernel))
    _split_ints = cached_property(lambda self: _integer_forms([self._split[0]] + self._split[1]))
    _section = cached_property(
        lambda self: _section_cells(self.ambient_dim, [self._split[0]] + self._split[1])
    )

    def to_json(self) -> dict:
        return {
            "ambientDim": self.ambient_dim,
            "dimension": self.dimension,
            "basis": [q.to_json() for q in self.basis],
        }


def quadric_space_from_points(points) -> QuadricSpace:
    """All polynomials of degree <= 2 vanishing on the point set.

    Computed as the nullspace of the evaluation matrix of the degree-<=2
    monomials on the set, entirely in exact arithmetic.  Row s holds the
    monomials at point s in integers (_monomials_at), scaled by den^2 for one
    denominator den common to every coordinate; the scaling leaves the
    nullspace as it is.
    """
    ps = PointSet.coerce(points)
    _slice_dim(ps.dim)
    coords, den = _scaled_coordinates(ps)
    rows = [_monomials_at(p, den)[0] for p in coords]
    return QuadricSpace(ps.dim, rational_rref(nullspace(rows, len(rows[0])))[0])


def quadric_space_from_generators(dim: int, generators) -> QuadricSpace:
    """Degree-<=2 slice spanned by the generators and their shifts.

    Each generator may be a polynomial string or a {Monomial: coefficient}
    mapping of degree <= 2.  Degree-<=1 generators g also contribute x_i * g
    (all still of degree <= 2); degree-2 generators contribute themselves.
    Higher-degree generators are rejected.  An empty generator list is the
    zero ideal: the slice is {0} and the relaxation is all of R^n.
    """
    dim = _slice_dim(parse_integer(dim, "dim", 1))
    vectors: List[List[Fraction]] = []

    def add(poly: Mapping[Monomial, Fraction]):
        vec = _coefficients(poly, dim)
        if any(vec):
            vectors.append(vec)

    for gen in generators:
        if isinstance(gen, str):
            poly = parse_polynomial(gen, dim)
        elif isinstance(gen, Mapping) and all(isinstance(m, Monomial) for m in gen):
            poly = {m: parse_rational(c) for m, c in gen.items()}
        else:
            raise InputError(
                f"generator {gen!r} is neither a polynomial string nor a "
                "{Monomial: coefficient} mapping"
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
    return QuadricSpace(dim, rational_rref(vectors)[0])


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


def _linear_kernel(space: QuadricSpace) -> List[List[Fraction]]:
    """Basis of the affine-linear members (quadratic part zero) of the space."""
    rows = [
        [scale * v[k] for v in space.vectors]
        for _, _, k, scale in _quadratic_layout(space.ambient_dim)
    ]
    return [_span(c, space.vectors) for c in nullspace(rows, space.dimension)]


def _trace_split(
    space: QuadricSpace,
) -> Optional[Tuple[List[Fraction], List[List[Fraction]]]]:
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
    layout = _quadratic_layout(space.ambient_dim)
    vectors = space.vectors
    traces = [sum(v[k] for i, j, k, _ in layout if i == j) for v in vectors]
    lead = next((i for i, t in enumerate(traces) if t != 0), None)
    if lead is None:
        return None
    unit = _span([1 / traces[lead]], [vectors[lead]])
    traceless = [
        _span([Fraction(1), -t / traces[lead]], [v, vectors[lead]])
        for i, (v, t) in enumerate(zip(vectors, traces))
        if i != lead
    ]
    if not traceless:
        return unit, []
    # quotient by the kernel: row-reduce the quadratic parts with an identity
    # tail so each surviving row keeps a preimage in span(traceless)
    width = len(layout)
    rows = [
        [scale * v[k] for _, _, k, scale in layout]
        + [Fraction(int(r == t)) for t in range(len(traceless))]
        for r, v in enumerate(traceless)
    ]
    reduced, pivots = rational_rref(rows)
    # a pivot in the tail marks a pure-kernel combination (zero quadratic part)
    rest = [
        _span(row[width:], traceless)
        for row, pivot in zip(reduced, pivots)
        if pivot < width
    ]
    return unit, rest


def _combine(
    unit: List[Fraction], rest: List[List[Fraction]], weights
) -> List[Fraction]:
    """unit + sum_i w_i * rest_i in exact arithmetic.

    Each float weight is snapped to a rational first, so the result is an
    exact member of the space that unit and rest span.
    """
    snapped = [Fraction(float(w)).limit_denominator(10**9) for w in weights]
    return _span([Fraction(1)] + snapped, [unit] + rest)


def _integer_forms(
    vectors: Sequence[Sequence[Fraction]],
) -> List[Tuple[List[Tuple[int, int]], int]]:
    """Each vector as (terms, den): entry k is v / den for each (k, v) in
    terms, zero elsewhere, with den the lcm of the entries' denominators."""
    forms = []
    for vec in vectors:
        ints, den = _over_lcm(vec)
        forms.append(([(k, v) for k, v in enumerate(ints) if v], den))
    return forms


def _monomials_at(p: Sequence[int], den: int) -> Tuple[List[int], int]:
    """(at, scale): _deg2_monomials(len(p)) at the point z = p / den are
    at[k] / scale.

    1, x_i and x_i x_j take den^2, p_i den and p_i p_j over the scale den^2.
    """
    layout = _quadratic_layout(len(p))
    at = [den * den] + [v * den for v in p] + [0] * len(layout)
    for i, j, k, _ in layout:
        at[k] = p[i] * p[j]
    return at, den * den


def _values_at(forms, at: List[int], scale: int) -> List[Fraction]:
    """The value of each integer form at the query (at, scale) of _monomials_at."""
    return [Fraction(sum(v * at[k] for k, v in terms), den * scale) for terms, den in forms]


def _section_cells(
    dim: int, vectors: List[List[Fraction]]
) -> Dict[Tuple[int, int], Dict[int, float]]:
    """SDP cells of A(u) = A(v_0) + sum_k u_k A(v_k), in row-major order."""
    cells: Dict[Tuple[int, int], Dict[int, float]] = {}
    for i, j, k, scale in _quadratic_layout(dim):
        vec = {l: to_float(scale * v[k]) for l, v in enumerate(vectors) if v[k]}
        if vec:
            cells[(i, j)] = vec
    return cells


def _solve_section(
    dim: int, cells: Dict[Tuple[int, int], Dict[int, float]], y_dim: int,
    objective: Dict[int, float], options: SolverOptions, what: str, empty_ok: bool = False,
) -> SdpSolution:
    """Solve the SDP of the cells of _section_cells PSD, coordinate 0 pinned.

    A solution that is not conclusive (or Infeasible, when empty_ok) is a
    SolverError naming `what`.  The cells may be shared between problems:
    nothing here or in the solver changes them.  momentsdp is imported here,
    not at module level, so a query decided exactly never loads it.
    """
    from .momentsdp import CONCLUSIVE, INFEASIBLE, SdpProblem, solve

    problem = SdpProblem(
        side=dim,
        y_dim=y_dim,
        cells=cells,
        objective=objective,
        fixed={0: 1.0},
        y_labels=["traceUnit"] + [f"s{l}" for l in range(1, y_dim)],
    )
    sol = solve(problem, options)
    if sol.status not in CONCLUSIVE and not (empty_ok and sol.status == INFEASIBLE):
        raise SolverError(f"{what} ended with status {sol.status}")
    return sol


class ConvexQuadricReport(_Record):
    """Existence of a member with PSD, nonzero quadratic part.  The interval
    is a pair of floats and extremes a pair of Quadrics."""

    _fields = ("exists", "verified", "status", "detail")
    _optional = ("margin", "definite", "certificate", "interval", "extremes")


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
    split = space._split
    if split is None:
        return ConvexQuadricReport(
            exists=False,
            verified=True,
            status="Decided",
            detail="every member has a traceless (hence zero) PSD part",
        )
    unit, rest = split
    n = space.ambient_dim
    if not rest:
        unit_quadric = _quadric(unit, n)
        ok = _is_psd_exact(unit_quadric.a)
        return ConvexQuadricReport(
            exists=ok,
            verified=True,
            certificate=unit_quadric if ok else None,
            status="Decided",
            detail="zero-dimensional section decided exactly",
        )

    opts = options or SolverOptions()
    # slack coordinate s: maximize s with A(u) - s I PSD, i.e. one more
    # direction whose quadratic part is -I
    diagonal = {k for i, j, k, _ in _quadratic_layout(n) if i == j}
    slack = [Fraction(-int(k in diagonal)) for k in range(len(unit))]
    s = len(rest) + 1
    # the solver sums each coordinate's entries in cell order: the cells only
    # the slack touches go last, after the section's own cells
    cells = _section_cells(n, [unit] + rest + [slack])
    cells = dict(sorted(cells.items(), key=lambda kv: list(kv[1]) == [s]))
    sol = _solve_section(n, cells, s + 1, {s: 1.0}, opts, "convex-quadric search")
    margin = sol.objective
    exists = margin >= -BOUNDARY_TOL
    weights = list(sol.y[1 : len(rest) + 1])
    certificate = _quadric(_combine(unit, rest, weights), n) if exists else None
    verified = bool(certificate and _is_psd_exact(certificate.a))

    interval = None
    extremes = None
    if len(rest) == 1 and exists:
        ends = []
        for direction in (-1.0, 1.0):
            side_sol = _solve_section(
                n, space._section, len(rest) + 1, {1: direction}, opts, "section sweep")
            ends.append(direction * side_sol.objective)
        interval = (min(ends), max(ends))
        extremes = tuple(_quadric(_combine(unit, rest, [w]), n) for w in interval)

    return ConvexQuadricReport(
        exists=exists,
        margin=margin,
        definite=margin > BOUNDARY_TOL,
        verified=verified,
        certificate=certificate,
        interval=interval,
        extremes=extremes,
        status=sol.status,
        detail="margin is the best smallest eigenvalue over the trace-1 section",
    )


class MembershipReport(_Record):
    """Outcome of separating a query point with convex quadrics; certificate
    and ray are Quadrics."""

    _fields = ("status", "detail")
    _optional = ("supremum", "certificate", "ray", "solver_status")


def th1_membership(
    space: QuadricSpace,
    query: Sequence,
    options: Optional[SolverOptions] = None,
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
    n = space.ambient_dim
    if len(z) != n:
        raise InputError(f"query has {len(z)} coordinates, expected {n}")
    if space.dimension == 0:
        return MembershipReport(
            status=INSIDE, detail="the space is zero, so nothing separates"
        )
    at_z, scale = _monomials_at(*_over_lcm(z))
    for g, g_at_z in zip(space._kernel, _values_at(space._kernel_ints, at_z, scale)):
        if g_at_z != 0:
            ray = g if g_at_z > 0 else [-c for c in g]
            return MembershipReport(
                status=OUTSIDE,
                ray=_quadric(ray, n),
                detail="an affine-linear member is nonzero at the query, "
                "so the section supremum is +infinity",
            )
    split = space._split
    if split is None:
        return MembershipReport(
            status=INSIDE,
            detail="no member has a nonzero PSD part and every affine-linear "
            "member vanishes at the query",
        )
    unit, rest = split
    unit_at_z, *rest_at_z = _values_at(space._split_ints, at_z, scale)
    constant = to_float(unit_at_z)
    certificate = None
    if not rest:
        if not _is_psd_exact(_quadric(unit, n).a):
            return MembershipReport(
                status=INSIDE,
                detail="the only trace-1 member is not PSD; no separator exists",
            )
        sup, weights, solver_status = constant, [], None
    else:
        from .momentsdp import CONCLUSIVE  # the section SDP below loads it anyway

        values = [to_float(v) for v in rest_at_z]
        objective = {k + 1: v for k, v in enumerate(values) if v}
        opts = options or SolverOptions()
        if objective:
            sol = _solve_section(n, space._section, len(rest) + 1, objective, opts,
                                 "membership SDP", empty_ok=True)
        else:
            # with no objective the SDP is the same at every such query, and
            # so is the member its weights pick: keep both on the space, once
            # per solver settings
            solves = space._zero_objective_solves
            key = tuple(vars(opts).values())
            if key not in solves:
                sol = _solve_section(n, space._section, len(rest) + 1, objective, opts,
                                     "membership SDP", empty_ok=True)
                member = None
                if sol.status in CONCLUSIVE:
                    member = _quadric(_combine(unit, rest, sol.y[1:]), n)
                solves[key] = (sol, member)
            sol, certificate = solves[key]
        if sol.status not in CONCLUSIVE:  # Infeasible
            return MembershipReport(
                status=INSIDE,
                solver_status=sol.status,
                detail="the PSD section is empty; no separator exists",
            )
        sup, weights, solver_status = sol.objective + constant, list(sol.y[1:]), sol.status
    detail = "supremum of q(z) over members with PSD part and trace 1"
    if sup < -BOUNDARY_TOL:
        return MembershipReport(
            status=INSIDE, supremum=sup, solver_status=solver_status, detail=detail
        )
    if certificate is None:
        certificate = _quadric(_combine(unit, rest, weights), n)
    return MembershipReport(
        status=OUTSIDE if sup > BOUNDARY_TOL else BORDERLINE,
        supremum=sup,
        certificate=certificate,
        solver_status=solver_status,
        detail=detail,
    )

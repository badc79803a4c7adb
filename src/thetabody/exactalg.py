"""Exact algebra for vanishing ideals of finite rational point sets.

Everything in this module runs over the rationals with no floating point:
monomials under the graded reverse lexicographic order (x1 > x2 > ... > xn),
finite point sets, and the quotient ring R[x]/I(S) presented by its standard
monomial basis.  The basis is computed with the Buchberger–Möller algorithm:
candidate monomials are visited in increasing degrevlex order, and a candidate
whose evaluation vector on S is linearly independent of the ones already kept
becomes a standard monomial, while a dependent candidate is a leading term of
the ideal and prunes all of its multiples.  The surviving set B is an order
ideal with |B| = |S|, and the evaluation matrix (points x basis) is invertible.

Normal forms are computed through that matrix: NF(f) is the unique element of
span(B) agreeing with f on S, i.e. the coefficient vector E^−1 (f(s))_{s in S}.
Because the term order is degree compatible, NF never raises degree, so the
normal form of a product of basis elements of degree <= k is supported on the
basis elements of degree <= 2k.  Products of basis elements reduce to pointwise
products of evaluation columns, which keeps the multiplication table cheap.

For reporting, bases are kept sorted by degree ascending and by *descending*
degrevlex inside each fixed degree (so x1^2, x1*x2, x2^2 in that order); this
is the order in which moment-matrix rows and y-coordinates are labeled.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import InputError

Rational = Fraction


def parse_rational(value) -> Fraction:
    """Coerce a JSON-ish scalar ("3/4", "2", int, Fraction) to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"invalid rational literal {value!r}") from exc
    raise InputError(f"cannot interpret {type(value).__name__} as a rational")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" (the JSON wire format)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True, order=False)
class Monomial:
    """A power product x1^a1 * ... * xn^an, stored by its exponent vector.

    The vector length is the ambient dimension; the constant monomial has an
    all-zero vector.  Instances are immutable and hashable so they can key
    sparse polynomial dictionaries.
    """

    exponents: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))
        if any(e < 0 for e in self.exponents):
            raise InputError("monomial exponents must be non-negative")

    @staticmethod
    def unit(dim: int) -> "Monomial":
        return Monomial((0,) * dim)

    @staticmethod
    def variable(index: int, dim: int) -> "Monomial":
        """The monomial x_{index} (1-based index) in `dim` variables."""
        if not 1 <= index <= dim:
            raise InputError(f"variable index {index} out of range 1..{dim}")
        return Monomial(tuple(1 if i == index - 1 else 0 for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(self.exponents) != len(other.exponents):
            raise InputError("cannot multiply monomials of different dimensions")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        return len(self.exponents) == len(other.exponents) and all(
            a <= b for a, b in zip(self.exponents, other.exponents)
        )

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.exponents):
            raise InputError("point/monomial dimension mismatch")
        out = Fraction(1)
        for coord, exp in zip(point, self.exponents):
            if exp:
                out *= Fraction(coord) ** exp
        return out

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


def grevlex_key(m: Monomial):
    """Sort key realizing *ascending* degrevlex (x1 > x2 > ... > xn)."""
    return (m.degree, tuple(-e for e in reversed(m.exponents)))


def display_key(m: Monomial):
    """Sort key for reported bases: degree ascending, degrevlex descending
    within a degree (x1^2 before x1*x2 before x2^2)."""
    return (m.degree, tuple(reversed(m.exponents)))


def parse_monomial(text: str, dim: int) -> Monomial:
    """Parse "1", "x2", "x1^2*x3" back into a Monomial (inverse of str)."""
    text = text.strip()
    if text == "1":
        return Monomial.unit(dim)
    exps = [0] * dim
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            base, _, power = factor.partition("^")
        else:
            base, power = factor, "1"
        if not base.startswith("x"):
            raise InputError(f"invalid monomial factor {factor!r}")
        try:
            index = int(base[1:])
            exponent = int(power)
        except ValueError as exc:
            raise InputError(f"invalid monomial factor {factor!r}") from exc
        if not 1 <= index <= dim:
            raise InputError(f"variable x{index} out of range for dimension {dim}")
        if exponent < 0:
            raise InputError(f"negative exponent in {factor!r}")
        exps[index - 1] += exponent
    return Monomial(tuple(exps))


def parse_polynomial(text: str, dim: int) -> Dict[Monomial, Fraction]:
    """Parse "x1^2 - 3/2*x1*x2 + 1" into {Monomial: Fraction}.

    Terms are separated by + and -; each term is an optional rational
    coefficient, an optional "*", and an optional monomial as accepted by
    parse_monomial.  Like terms are merged and zero terms dropped.
    """
    stripped = text.strip()
    if not stripped:
        raise InputError("empty polynomial")
    if stripped[-1] in "+-":
        raise InputError("polynomial ends with a dangling operator")
    out: Dict[Monomial, Fraction] = {}
    pos = 0
    sign = Fraction(1)
    if stripped[0] in "+-":
        sign = Fraction(-1) if stripped[0] == "-" else Fraction(1)
        pos = 1
    while pos < len(stripped):
        nxt = pos
        while nxt < len(stripped) and stripped[nxt] not in "+-":
            nxt += 1
        term = stripped[pos:nxt].strip()
        if not term:
            raise InputError(f"malformed polynomial near {stripped[pos:]!r}")
        coeff = Fraction(1)
        mono_text = term
        head = term.split("*", 1)[0].strip()
        if not head.startswith("x"):
            coeff = parse_rational(head)
            mono_text = term[len(term.split("*", 1)[0]) :].lstrip("*").strip()
        monomial = (
            parse_monomial(mono_text, dim) if mono_text else Monomial.unit(dim)
        )
        value = out.get(monomial, Fraction(0)) + sign * coeff
        if value:
            out[monomial] = value
        else:
            out.pop(monomial, None)
        if nxt < len(stripped):
            sign = Fraction(-1) if stripped[nxt] == "-" else Fraction(1)
        pos = nxt + 1
    return out


class PointSet:
    """A finite set of distinct points in Q^n.

    Points are stored as tuples of Fractions; order is preserved as given
    (it fixes the row order of evaluation matrices).  Duplicates and ragged
    rows are rejected rather than repaired.
    """

    __slots__ = ("dim", "points")

    def __init__(self, dim: int, points: Iterable[Sequence]):
        dim = int(dim)
        if dim < 1:
            raise InputError("point set dimension must be >= 1")
        rows: List[Tuple[Fraction, ...]] = []
        for row in points:
            coords = tuple(parse_rational(c) for c in row)
            if len(coords) != dim:
                raise InputError(
                    f"point {tuple(map(format_rational, coords))} has "
                    f"{len(coords)} coordinates, expected {dim}"
                )
            rows.append(coords)
        if not rows:
            raise InputError("point set must be non-empty")
        if len(set(rows)) != len(rows):
            raise InputError("point set contains duplicate points")
        self.dim = dim
        self.points = tuple(rows)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.dim == other.dim
            and self.points == other.points
        )

    def __repr__(self) -> str:
        return f"PointSet(dim={self.dim}, size={len(self.points)})"

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "points": [[format_rational(c) for c in p] for p in self.points],
        }

    @staticmethod
    def from_json(obj) -> "PointSet":
        if not isinstance(obj, dict) or "dim" not in obj or "points" not in obj:
            raise InputError('point set JSON needs keys "dim" and "points"')
        return PointSet(obj["dim"], obj["points"])

    @staticmethod
    def coerce(points) -> "PointSet":
        """A PointSet from a PointSet, its JSON dict, or a sequence of rows
        (the dimension is the length of the first row)."""
        if isinstance(points, PointSet):
            return points
        if isinstance(points, dict):
            return PointSet.from_json(points)
        rows = [tuple(row) for row in points]
        if not rows:
            raise InputError("point set must be non-empty")
        return PointSet(len(rows[0]), rows)

    @staticmethod
    def from_file(path: str) -> "PointSet":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                obj = json.load(handle)
        except OSError as exc:
            raise InputError(f"cannot read point set file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
        return PointSet.from_json(obj)


def rational_rref(rows) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form of a rational matrix.

    Returns (reduced nonzero rows, pivot column indices); the input is not
    modified.  Entries may be anything parse_rational accepts.
    """
    work = [[parse_rational(v) for v in row] for row in rows]
    if not work:
        return [], []
    width = len(work[0])
    if any(len(row) != width for row in work):
        raise InputError("matrix rows have unequal lengths")
    pivots: List[int] = []
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = Fraction(1) / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work[:rank], pivots


def nullspace(rows, width: int) -> List[List[Fraction]]:
    """Basis of {v in Q^width : row . v = 0 for every row}.

    One vector per free column f of the RREF: 1 at f, minus the reduced rows'
    entries in column f at their pivots, 0 elsewhere.  With no rows every
    column is free.
    """
    reduced, pivots = rational_rref(rows)
    out = []
    for f in [j for j in range(width) if j not in pivots]:
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        out.append(vec)
    return out


def _invert_rational_matrix(matrix: List[List[Fraction]]) -> List[List[Fraction]]:
    """Exact inverse of a square rational matrix: the RREF of [A | I] is
    [I | A^-1] exactly when its pivots are the first n columns."""
    n = len(matrix)
    reduced, pivots = rational_rref(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    )
    if pivots != list(range(n)):
        raise InputError("evaluation matrix is singular")
    return [row[n:] for row in reduced]


class QuotientRing:
    """R[x1..xn]/I(S) for a finite point set S, presented by standard monomials.

    Fields:
      points       the defining PointSet
      basis        standard monomials, degree ascending / degrevlex descending
                   within each degree (reporting order); always contains 1
      degrees      degree of each basis element
      eval_matrix  |S| x |B| Fractions, entry (s, l) = basis[l](points[s])
      leading      the minimal monomials outside the standard set
    """

    def __init__(self, points: PointSet, basis: List[Monomial], leading: List[Monomial]):
        self.points = points
        self.basis = list(basis)
        self.degrees = [m.degree for m in self.basis]
        self.leading = list(leading)
        self.eval_matrix: List[List[Fraction]] = [
            [m.evaluate(p) for m in self.basis] for p in points
        ]
        self._eval_inverse = _invert_rational_matrix(self.eval_matrix)
        self._index = {m: i for i, m in enumerate(self.basis)}
        self._mul_table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}

    # -- basic views ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.points.dim

    def __len__(self) -> int:
        return len(self.basis)

    @property
    def top_degree(self) -> int:
        return self.degrees[-1] if self.degrees else 0

    def basis_index(self, m: Monomial):
        return self._index.get(m)

    def indices_up_to_degree(self, k: int) -> List[int]:
        return [i for i, d in enumerate(self.degrees) if d <= k]

    def evaluate_basis(self, point_index: int) -> List[Fraction]:
        """The vector xi(s) = (b_l(s))_l for the point with this row index."""
        if not 0 <= point_index < len(self.points):
            raise InputError(
                f"point index {point_index} out of range 0..{len(self.points) - 1}"
            )
        return list(self.eval_matrix[point_index])

    # -- normal forms ----------------------------------------------------

    def _interpolate(self, values: Sequence[Fraction]) -> Dict[int, Fraction]:
        """Coefficients over the basis of the unique interpolant of `values`."""
        out: Dict[int, Fraction] = {}
        for l in range(len(self.basis)):
            acc = Fraction(0)
            for s, v in enumerate(values):
                if v:
                    acc += self._eval_inverse[l][s] * v
            if acc:
                out[l] = acc
        return out

    def normal_form(self, poly: Mapping[Monomial, object]) -> Dict[int, Fraction]:
        """Normal form of a sparse polynomial {monomial: coeff}.

        Returns the sparse coefficient vector {basis index: coeff} of the
        unique element of span(basis) congruent to `poly` modulo I(S); the
        difference vanishes on every point of S (exact arithmetic).
        """
        values = [Fraction(0)] * len(self.points)
        for mono, raw in poly.items():
            if not isinstance(mono, Monomial):
                raise InputError("polynomial keys must be Monomial instances")
            if mono.dim != self.dim:
                raise InputError(
                    f"monomial in {mono.dim} variables, ring has {self.dim}"
                )
            coeff = parse_rational(raw)
            if coeff == 0:
                continue
            for s, point in enumerate(self.points):
                values[s] += coeff * mono.evaluate(point)
        return self._interpolate(values)

    def product_normal_form(self, i: int, j: int) -> Dict[int, Fraction]:
        """NF(basis[i] * basis[j]) as a sparse vector, cached per pair."""
        key = (i, j) if i <= j else (j, i)
        cached = self._mul_table.get(key)
        if cached is None:
            values = [
                self.eval_matrix[s][key[0]] * self.eval_matrix[s][key[1]]
                for s in range(len(self.points))
            ]
            cached = self._interpolate(values)
            self._mul_table[key] = cached
        return cached


def buchberger_moller(points: PointSet) -> QuotientRing:
    """Standard-monomial basis of I(S) under degrevlex, as a QuotientRing.

    Candidates are visited in ascending degrevlex order; a candidate whose
    evaluation vector on S is independent of the kept ones joins the basis,
    otherwise it is a minimal leading term and all its multiples are pruned.
    Terminates with exactly |S| basis elements.
    """
    points = PointSet.coerce(points)
    n = points.dim
    size = len(points)

    basis: List[Monomial] = []
    leading: List[Monomial] = []
    # Reduced evaluation vectors of the kept monomials, with pivot positions.
    reduced: List[Tuple[int, List[Fraction]]] = []

    def is_independent(vector: List[Fraction]) -> bool:
        vec = list(vector)
        for pivot, row in reduced:
            if vec[pivot]:
                factor = vec[pivot] / row[pivot]
                for idx in range(size):
                    vec[idx] -= factor * row[idx]
        for idx in range(size):
            if vec[idx]:
                reduced.append((idx, vec))
                return True
        return False

    start = Monomial.unit(n)
    heap = [(grevlex_key(start), start)]
    seen = {start}
    while heap and len(basis) < size:
        _, mono = heapq.heappop(heap)
        if any(lead.divides(mono) for lead in leading):
            continue
        vector = [mono.evaluate(p) for p in points]
        if is_independent(vector):
            basis.append(mono)
            for i in range(1, n + 1):
                nxt = mono * Monomial.variable(i, n)
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (grevlex_key(nxt), nxt))
        else:
            leading.append(mono)

    assert len(basis) == size, "standard monomials must match the point count"
    basis.sort(key=display_key)
    leading.sort(key=grevlex_key)

    ring = QuotientRing(points, basis, leading)

    # Order-ideal sanity check: every divisor of a standard monomial is standard.
    for m in basis:
        for i in range(1, n + 1):
            exps = list(m.exponents)
            if exps[i - 1] > 0:
                exps[i - 1] -= 1
                assert Monomial(tuple(exps)) in ring._index
    return ring

"""Exact algebra for vanishing ideals of finite rational point sets.

Everything in this module runs over the rationals with no floating point:
monomials under the graded reverse lexicographic order (x1 > x2 > ... > xn),
finite point sets, and the quotient ring R[x]/I(S) presented by its standard
monomial basis.  The basis is computed with the Buchberger–Möller algorithm:
candidate monomials are visited in increasing degrevlex order, and a candidate
whose evaluation vector on S is linearly independent of the ones already kept
becomes a standard monomial, while a dependent candidate is a leading term of
the ideal and prunes all of its multiples.  The surviving set B is an order
ideal with |B| = |S|, and the evaluation matrix E (points x basis) is invertible.

One incremental Gauss–Jordan elimination decides independence and records
each reduced row's combination of the kept evaluation vectors.  At full rank
these are the Lagrange polynomials of the points over B, the rows of E^−1
(Marinari–Möller–Mora, AAECC 4, 1993), so normal forms need no second
elimination: NF(f), the unique element of span(B) agreeing with f on S, has
the coefficient vector E^−1 (f(s))_{s in S}.  The elimination and the ring's
E and E^−1 work on ints over a positive denominator per row or column (a
Fraction pays a gcd and an object per operation); results leave as Fractions.
Monomials are evaluated in integers too: over one denominator den common to
every coordinate, a candidate's values are its kept divisor's times one
coordinate column, over den^degree.
Because the term order is degree compatible, NF never raises degree, so the
normal form of a product of basis elements of degree <= k is supported on the
basis elements of degree <= 2k.  Products of basis elements reduce to pointwise
products of evaluation columns, which keeps the multiplication table cheap.

For reporting, bases are kept sorted by degree ascending and by *descending*
degrevlex inside each fixed degree (so x1^2, x1*x2, x2^2 in that order); this
is the order in which moment-matrix rows and y-coordinates are labeled.
"""

from __future__ import annotations

import bisect
import heapq
import json
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import InputError, ResourceLimitError

# Largest point set buchberger_moller accepts.  Its exact elimination grows
# about as the fifth power of the point count: random points with
# coordinates p/q, |p| <= 10, 1 <= q <= 10, took 1.3 / 1.2 / 1.1 s at 64
# in dimension 2 / 3 / 5, 9.4 s at 96 in dimension 3 (1.5^5.1 times 64) and
# 36 s at 128 in the plane (2^4.8 times 64), on one core of a 2-CPU Xeon.
# Evaluating the candidates in integers left these times as they were: the
# elimination is the cost.  The cap equals geomexact.MAX_POINTS, so every
# set the facet code accepts has a ring.
MAX_BM_POINTS = 64


def parse_rational(value) -> Fraction:
    """Coerce a JSON-ish scalar ("3/4", "2", int, Fraction) to a Fraction.
    Booleans are not numbers here, although Python's bool is an int."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"invalid rational literal {value!r}") from exc
    raise InputError(f"cannot interpret {type(value).__name__} as a rational")


def parse_integer(value, what: str) -> int:
    """An integral JSON number (1 or 1.0) as an int; int() would take true
    as 1, "2" as 2 and truncate 2.5, so each of those is an InputError."""
    if type(value) not in (int, float) or value % 1 != 0:
        raise InputError(f"{what} must be an integer, not {value!r}")
    return int(value)


def read_file(path: str, what: str, parse=json.loads):
    """parse applied to the text of a UTF-8 file.  A file that cannot be read
    or decoded, or JSON that does not parse, is an InputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def to_float(value) -> float:
    """A float as it is, or anything parse_rational accepts as the nearest
    float; a rational beyond float range raises InputError naming it."""
    if isinstance(value, float):
        return value
    value = parse_rational(value)
    try:
        return float(value)
    except OverflowError:
        text = format_rational(value)
        if len(text) > 40:
            text = f"{text[:20]}...({len(text)} characters)"
        raise InputError(f"{text} lies beyond float range") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" (the JSON wire format)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _camel(name: str) -> str:
    """A field's JSON key: affine_dim -> affineDim, is_01 -> is01."""
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


def _json_value(value):
    """A field's JSON form: its own to_json(), a list of its elements' forms
    for a tuple or list, else the value itself."""
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value


class _Record:
    """Base of the result types, which list their fields once: _fields are
    required, _optional default to None, and _internal name the fields that
    to_json leaves out.  __init__ takes the fields by position or keyword and
    raises TypeError for an unknown, repeated or missing one; to_json writes
    each field under its camelCase name.  Unlike a @dataclass this generates
    no code, so defining a record loads and compiles nothing."""

    _fields: Tuple[str, ...] = ()
    _optional: Tuple[str, ...] = ()
    _internal: Tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        cls = type(self).__name__
        names = self._fields + self._optional
        if len(args) > len(names):
            raise TypeError(f"{cls} has {len(names)} fields, got {len(args)} arguments")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls} got an unknown or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name not in values and name not in self._optional:
                raise TypeError(f"{cls} needs the field {name!r}")
            object.__setattr__(self, name, values.get(name))  # _Frozen refuses setattr

    def to_json(self) -> dict:
        return {_camel(name): _json_value(getattr(self, name))
                for name in self._fields + self._optional if name not in self._internal}


class _Frozen(_Record):
    """Base of the immutable value types: Monomial, FacetInequality, Quadric
    and Graph.  Each field is set once, by _Record.__init__ or with
    object.__setattr__ in a validating __init__; after that no field can be
    assigned or deleted.  Instances are equal when they have the same class
    and equal _key(), the tuple of their _fields, and hash as that tuple.  Set
    iteration order follows these hashes, and the reports and pinned digests
    follow that order."""

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Monomial(_Frozen):
    """A power product x1^a1 * ... * xn^an, stored by its exponent vector.

    The vector length is the ambient dimension; the constant monomial has an
    all-zero vector.  Instances are immutable and hashable so they can key
    sparse polynomial dictionaries.
    """

    _fields = ("exponents",)

    def __init__(self, exponents: Sequence[int]):
        exponents = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exponents):
            raise InputError("monomial exponents must be non-negative")
        object.__setattr__(self, "exponents", exponents)

    # _Frozen's two methods written out: monomials key every sparse
    # polynomial, and the _key() call would double the cost of a lookup
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.exponents == other.exponents
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.exponents,))

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
        try:
            dim = int(dim)
            raw = [row if isinstance(row, str) else tuple(row) for row in points]
        except (TypeError, ValueError) as exc:
            raise InputError(f"invalid point set: {exc}") from exc
        if dim < 1:
            raise InputError("point set dimension must be >= 1")
        rows: List[Tuple[Fraction, ...]] = []
        for row in raw:
            if isinstance(row, str):
                raise InputError(f"point {row!r} is a string, not a list of coordinates")
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
        return PointSet(parse_integer(obj["dim"], "dim"), obj["points"])

    @staticmethod
    def coerce(points) -> "PointSet":
        """A PointSet from a PointSet, its JSON dict, or a sequence of rows
        (the dimension is the length of the first row)."""
        if isinstance(points, PointSet):
            return points
        if isinstance(points, dict):
            return PointSet.from_json(points)
        rows = list(points)
        if not rows:
            raise InputError("point set must be non-empty")
        return PointSet(len(rows[0]), rows)

    @staticmethod
    def from_file(path: str) -> "PointSet":
        return PointSet.from_json(read_file(path, "point set"))


def _over_lcm(values: Sequence) -> Tuple[List[int], int]:
    """(ints, den) with value k = ints[k] / den, den the lcm of the values'
    denominators; ints and Fractions alike."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _scaled_coordinates(points: PointSet) -> Tuple[List[List[int]], int]:
    """(rows, den): coordinate i of point s is rows[s][i] / den, with den the
    lcm of the denominators of all the coordinates."""
    den = lcm(*(c.denominator for p in points for c in p))
    return [[c.numerator * (den // c.denominator) for c in p] for p in points], den


class _Elimination:
    """Incremental Gauss–Jordan elimination over the rationals, in integers;
    it also gives rational_rref and the affine frames of geomexact.

    rows stay the RREF of the vectors add() kept, sorted by pivot; each row
    is 0 at the other rows' pivots, so add() reads its multiple straight off
    a new vector.  Row i's combo holds its coefficients over the kept vectors
    in the order they were kept.  Once the rows span Q^n they are the
    identity, and the combos invert the matrix whose rows are the kept vectors.
    A row is stored with its combo appended, as ints over its entry at the
    pivot, and divided by the gcd of its entries after each update.  Only
    rows, for rational_rref, builds Fractions; inverse() hands out ints.
    """

    def __init__(self):
        self.pivots: List[int] = []
        self._rows: List[List[int]] = []
        self._width = 0

    rows = property(lambda self: [[Fraction(v, row[p]) for v in row[:self._width]]
                                  for row, p in zip(self._rows, self.pivots)])

    def inverse(self) -> List[Tuple[List[int], int]]:
        """The combos transposed, row k as (ints, den) in lowest terms (den > 0):
        ints[i] / den is the coefficient of kept vector k in rows[i]."""
        den = lcm(*(row[p] for row, p in zip(self._rows, self.pivots)))
        scales = [den // row[p] for row, p in zip(self._rows, self.pivots)]
        combos = [[v * s for v in row[self._width:]] for row, s in zip(self._rows, scales)]
        return [(vec[:-1], vec[-1]) for vec in (_divide_gcd([*col, den]) for col in zip(*combos))]

    def add(self, ints: Sequence[int], den: int) -> bool:
        """Reduce the vector ints / den (den > 0, any common factors); keep it
        when it is independent."""
        self._width = width = len(ints)
        used = [(ints[p], row, row[p]) for p, row in zip(self.pivots, self._rows) if ints[p]]
        # (vector - sum_i vector[p_i] * rows[i]) * den * scale, with its combo
        scale = lcm(*(d for _, _, d in used))
        vec = [v * scale for v in ints] + [0] * len(self._rows)
        for f, row, d in used:
            f *= scale // d
            vec = [v - f * w if w else v for v, w in zip(vec, row)]
        pivot = next((j for j in range(width) if vec[j]), None)
        if pivot is None:
            return False
        vec = _divide_gcd(vec + [den * scale], vec[pivot] < 0)
        d = vec[pivot]
        for i, row in enumerate(self._rows):
            row.append(0)
            g = row[pivot]
            if g:
                self._rows[i] = _divide_gcd(
                    [d * v - g * w if w else d * v for v, w in zip(row, vec)])
        at = bisect.bisect(self.pivots, pivot)
        self._rows.insert(at, vec)
        self.pivots.insert(at, pivot)
        return True


def _divide_gcd(vec: List[int], negate: bool = False) -> List[int]:
    """vec divided by the gcd of its entries, and negated when asked."""
    g = -gcd(*vec) if negate else gcd(*vec)
    return vec if g == 1 else [v // g for v in vec]


def _find(parent: List[int], i: int) -> int:
    """Root of i in a union-find forest, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def rational_rref(rows) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form of a rational matrix.

    Returns (reduced nonzero rows, pivot column indices); the input is not
    modified.  Entries may be anything parse_rational accepts.
    """
    work = [[parse_rational(v) for v in row] for row in rows]
    if work and any(len(row) != len(work[0]) for row in work):
        raise InputError("matrix rows have unequal lengths")
    elim = _Elimination()
    for row in work:
        elim.add(*_over_lcm(row))
    return elim.rows, elim.pivots


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


class QuotientRing:
    """R[x1..xn]/I(S) for a finite point set S, presented by standard monomials.

    Fields:
      points       the defining PointSet
      basis        standard monomials, degree ascending / degrevlex descending
                   within each degree (reporting order); always contains 1
      degrees      degree of each basis element

    With E the |S| x |B| evaluation matrix, entry (s, l) = basis[l](points[s]),
    `columns` gives E's columns and `inverse` the rows of E^-1 as (ints, den).
    """

    def __init__(self, points: PointSet, basis: List[Monomial],
                 columns: List[Tuple[List[int], int]], inverse: List[Tuple[List[int], int]]):
        self.points = points
        self.basis = list(basis)
        self.degrees = [m.degree for m in self.basis]
        self._columns = columns
        self._inverse = inverse
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

    # -- normal forms ----------------------------------------------------

    def _interpolate(self, values: Sequence[int], den: int) -> Dict[int, Fraction]:
        """Basis coefficients of the interpolant of the values values[s] / den."""
        out: Dict[int, Fraction] = {}
        for l, (row, row_den) in enumerate(self._inverse):
            acc = sum(map(mul, row, values))
            if acc:
                out[l] = Fraction(acc, row_den * den)
        return out

    def normal_form(self, poly: Mapping[Monomial, object]) -> Dict[int, Fraction]:
        """Normal form of a sparse polynomial {monomial: coeff}.

        Returns the sparse coefficient vector {basis index: coeff} of the
        unique element of span(basis) congruent to `poly` modulo I(S); the
        difference vanishes on every point of S (exact arithmetic).  A basis
        monomial is its own normal form; only the other monomials are
        evaluated on S and interpolated.
        """
        out: Dict[int, Fraction] = {}
        outside: List[Tuple[Monomial, Fraction]] = []
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
            l = self._index.get(mono)
            if l is None:
                outside.append((mono, coeff))
            else:
                out[l] = coeff
        if outside:
            # coeff * mono on S is coeff.numerator * mono(rows[s]) over
            # coeff.denominator * den^degree: sum the terms over their lcm
            rows, den = _scaled_coordinates(self.points)
            dens = [coeff.denominator * den**mono.degree for mono, coeff in outside]
            common = lcm(*dens)
            values = [0] * len(rows)
            for (mono, coeff), d in zip(outside, dens):
                factor = coeff.numerator * (common // d)
                for s, row in enumerate(rows):
                    values[s] += factor * prod(x**e for x, e in zip(row, mono.exponents))
            for l, c in self._interpolate(values, common).items():
                out[l] = out.get(l, 0) + c
        return {l: out[l] for l in sorted(out) if out[l]}

    def product_normal_form(self, i: int, j: int) -> Dict[int, Fraction]:
        """NF(basis[i] * basis[j]) as a sparse vector, cached per pair."""
        key = (i, j) if i <= j else (j, i)
        cached = self._mul_table.get(key)
        if cached is None:
            (a, da), (b, db) = self._columns[key[0]], self._columns[key[1]]
            cached = self._interpolate(list(map(mul, a, b)), da * db)
            self._mul_table[key] = cached
        return cached


def buchberger_moller(points: PointSet) -> QuotientRing:
    """Standard-monomial basis of I(S) under degrevlex, as a QuotientRing.

    Candidates are visited in ascending degrevlex order; a candidate whose
    evaluation vector on S is independent of the kept ones joins the basis,
    otherwise it is a minimal leading term and all its multiples are pruned.
    Terminates with exactly |S| basis elements.  Sets of more than
    MAX_BM_POINTS points are refused.
    """
    points = PointSet.coerce(points)
    n = points.dim
    size = len(points)
    if size > MAX_BM_POINTS:
        raise ResourceLimitError(
            f"Buchberger-Moller capped at {MAX_BM_POINTS} points, got {size}"
        )

    # a candidate's values on S are those of the kept divisor it was pushed
    # from times one coordinate column, as ints over den^degree
    rows, den = _scaled_coordinates(points)
    coordinate_columns = [list(col) for col in zip(*rows)]
    kept: List[Monomial] = []
    columns: List[Tuple[List[int], int]] = []
    leading: List[Monomial] = []
    elim = _Elimination()
    start = Monomial.unit(n)
    ones = [1] * size
    heap = [(grevlex_key(start), start, ones, ones)]
    seen = {start}
    while heap and len(kept) < size:
        _, mono, divisor_values, column = heapq.heappop(heap)
        if any(lead.divides(mono) for lead in leading):
            continue
        values = list(map(mul, divisor_values, column))
        values_den = den**mono.degree
        if elim.add(values, values_den):
            kept.append(mono)
            columns.append((values, values_den))
            for i in range(1, n + 1):
                nxt = mono * Monomial.variable(i, n)
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (grevlex_key(nxt), nxt, values, coordinate_columns[i - 1]))
        else:
            leading.append(mono)

    assert len(kept) == size, "standard monomials must match the point count"
    # row s's combo is the Lagrange polynomial of point s: inverse[k] is row k of E^-1
    order = sorted(range(size), key=lambda k: display_key(kept[k]))
    inverse = elim.inverse()
    ring = QuotientRing(points, [kept[k] for k in order],
                        [columns[k] for k in order], [inverse[k] for k in order])

    # Order-ideal sanity check: every divisor of a standard monomial is standard.
    for m in ring.basis:
        for i in range(1, n + 1):
            exps = list(m.exponents)
            if exps[i - 1] > 0:
                exps[i - 1] -= 1
                assert Monomial(tuple(exps)) in ring._index
    return ring

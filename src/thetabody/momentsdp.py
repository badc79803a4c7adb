"""Truncated combinatorial moment matrices and the SDPs they induce.

For a quotient ring with basis B and a level k, the moment matrix template
records, for every pair of basis elements b_i, b_j of degree <= k, the normal
form of b_i * b_j as a sparse rational vector over the truncated basis B_2k.
Instantiating the template at a vector y (indexed by B_2k, with y_0 pinned to
1) gives the symmetric matrix M(y) whose positive semidefiniteness cuts out
the level-k theta body: maximizing a linear objective over the projection to
the degree-one coordinates is the level-k relaxation of optimizing over the
convex hull of the point set.

Cells whose products reduce to the same element share one coefficient vector
object, so the symmetry M_{b,b'} = M_{c,c'} for bb' = cc' holds by
construction rather than by bookkeeping.  template_from_products is the one
builder: it lays out rows and y-coordinates as degree prefixes of any
degree-sorted basis, given how to name a product and how to expand it.
build_moment_template feeds it a point-set quotient ring (monomial products,
normal forms); combopt feeds it combinatorial set systems (set unions,
unit-vector or zero cells) with no ring attached.  orbit_problem is the one
linear map on the numeric SDP: it restricts y to be constant on given orbits
of its coordinates and expands the reduced solution back, which combopt uses
for graph symmetry.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .exactalg import (
    Monomial,
    QuotientRing,
    format_rational,
    parse_rational,
)

Cell = Dict[int, Fraction]


@dataclass
class MomentTemplate:
    """Symbolic level-k moment matrix over a truncated basis.

    Fields:
      level         the level k
      ambient_dim   number of ambient coordinates (variables of the ideal)
      row_indices   y-indices of the matrix rows (the degree-<=k basis slice)
      row_labels    printable names of the rows, parallel to row_indices
      y_dim         number of y-coordinates (the degree-<=2k basis slice,
                    saturating at the full basis); index 0 is the unit
      y_labels      printable names of the y-coordinates
      cells         (i, j) with i <= j (positions into row_indices) mapped to
                    sparse rational vectors over the y-coordinates; cells with
                    equal products reference the *same* dict object
      ring          the quotient ring for point-set templates, else None
      linear_index  y-index of each ambient variable that appears directly as
                    a degree-one basis element (used to place objectives when
                    no ring is attached)
    """

    level: int
    ambient_dim: int
    row_indices: List[int]
    row_labels: List[str]
    y_dim: int
    y_labels: List[str]
    cells: Dict[Tuple[int, int], Cell]
    ring: Optional[QuotientRing] = None
    linear_index: Dict[int, int] = field(default_factory=dict)

    @property
    def side(self) -> int:
        return len(self.row_indices)

    def cell(self, i: int, j: int) -> Cell:
        return self.cells[(i, j) if i <= j else (j, i)]

    def to_json(self) -> dict:
        cells = []
        for (i, j), vec in sorted(self.cells.items()):
            cells.append(
                {
                    "cell": [self.row_labels[i], self.row_labels[j]],
                    "coeffs": {
                        f"y[{self.y_labels[l]}]": format_rational(c)
                        for l, c in sorted(vec.items())
                    },
                }
            )
        return {
            "level": self.level,
            "rows": list(self.row_labels),
            "y": list(self.y_labels),
            "cells": cells,
        }


def template_from_products(
    k: int,
    degrees: Sequence[int],
    labels: List[str],
    product: Callable[[int, int], Hashable],
    cell: Callable[[int, int], Cell],
    ambient_dim: int,
    linear: Mapping[int, Optional[int]],
    ring: Optional[QuotientRing] = None,
) -> MomentTemplate:
    """Level-k moment template over a basis sorted by degree.

    degrees and labels describe the basis elements.  Rows are the elements
    of degree <= k and y-coordinates those of degree <= 2k, both prefixes of
    the basis.  product(i, j) names the product of rows i and j; cells with
    equal products share the one vector cell(i, j) built at its first sight.
    linear maps ambient variables to the basis index of their degree-one
    element; entries that are None or beyond the y-coordinates are dropped.
    """
    if k < 1:
        raise InputError("moment level must be >= 1")
    assert list(degrees) == sorted(degrees)
    rows = [l for l, d in enumerate(degrees) if d <= k]
    y_dim = sum(1 for d in degrees if d <= 2 * k)

    products: Dict[Hashable, Cell] = {}
    cells: Dict[Tuple[int, int], Cell] = {}
    for i in rows:
        for j in rows[i:]:
            key = product(i, j)
            vec = products.get(key)
            if vec is None:
                vec = cell(i, j)
                if any(l >= y_dim for l in vec):
                    raise AssertionError(
                        "normal form of a degree-<=2k product escaped B_2k"
                    )
                products[key] = vec
            cells[(i, j)] = vec

    return MomentTemplate(
        level=k,
        ambient_dim=ambient_dim,
        row_indices=rows,
        row_labels=labels[: len(rows)],
        y_dim=y_dim,
        y_labels=labels[:y_dim],
        cells=cells,
        ring=ring,
        linear_index={
            v: l for v, l in linear.items() if l is not None and l < y_dim
        },
    )


def build_moment_template(ring: QuotientRing, k: int) -> MomentTemplate:
    """Level-k moment template of a point-set quotient ring.

    Rows are the basis elements of degree <= k; y-coordinates are the basis
    elements of degree <= 2k (all of them when 2k exceeds the top degree).
    """
    return template_from_products(
        k,
        ring.degrees,
        [str(b) for b in ring.basis],
        lambda i, j: ring.basis[i] * ring.basis[j],
        lambda i, j: dict(ring.product_normal_form(i, j)),
        ring.dim,
        {
            v: ring.basis_index(Monomial.variable(v, ring.dim))
            for v in range(1, ring.dim + 1)
        },
        ring,
    )


def assemble(template: MomentTemplate, y: Sequence):
    """Instantiate the template at a y-vector.

    With exact inputs (Fractions/ints) the result is a nested list of
    Fractions; otherwise a float numpy array.  Either way the matrix is
    symmetric by construction.
    """
    if len(y) != template.y_dim:
        raise InputError(
            f"y has length {len(y)}, template expects {template.y_dim}"
        )
    side = template.side
    exact = all(isinstance(v, (Fraction, int)) for v in y)
    if exact:
        matrix = [[Fraction(0)] * side for _ in range(side)]
        for (i, j), vec in template.cells.items():
            value = sum((c * y[l] for l, c in vec.items()), Fraction(0))
            matrix[i][j] = value
            matrix[j][i] = value
        return matrix
    ydense = np.asarray([float(v) for v in y])
    matrix = np.zeros((side, side))
    for (i, j), vec in template.cells.items():
        value = sum(float(c) * ydense[l] for l, c in vec.items())
        matrix[i, j] = value
        matrix[j, i] = value
    return matrix


@dataclass
class SdpProblem:
    """max <objective, y> s.t. the affine symmetric matrix M(y) is PSD.

    cells maps (i, j), i <= j, to sparse {y-index: coefficient}; `fixed`
    pins coordinates (always at least y_0 = 1 for moment problems).  This is
    the float layer handed to the interior-point solver.
    """

    side: int
    y_dim: int
    cells: Dict[Tuple[int, int], Dict[int, float]]
    objective: Dict[int, float]
    fixed: Dict[int, float]
    y_labels: Optional[List[str]] = None

    def __post_init__(self):
        if self.side < 1 or self.y_dim < 0:
            raise InputError("SDP needs side >= 1 and y_dim >= 0")
        for (i, j), vec in self.cells.items():
            if not (0 <= i <= j < self.side):
                raise InputError(f"cell ({i},{j}) outside matrix")
            for l in vec:
                if not 0 <= l < self.y_dim:
                    raise InputError(f"cell ({i},{j}) uses unknown y[{l}]")
        for l in list(self.objective) + list(self.fixed):
            if not 0 <= l < self.y_dim:
                raise InputError(f"unknown y-index {l}")
        values = [c for vec in self.cells.values() for c in vec.values()]
        values += list(self.objective.values()) + list(self.fixed.values())
        if not all(math.isfinite(c) for c in values):
            raise InputError("SDP coefficients must be finite (no NaN or infinity)")

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "yDim": self.y_dim,
            "cells": [
                {"row": i, "col": j, "coeffs": {str(l): c for l, c in sorted(v.items())}}
                for (i, j), v in sorted(self.cells.items())
            ],
            "objective": {str(l): c for l, c in sorted(self.objective.items())},
            "fixed": {str(l): c for l, c in sorted(self.fixed.items())},
            "labels": self.y_labels,
        }

    @staticmethod
    def from_json(obj) -> "SdpProblem":
        try:
            cells = {}
            for entry in obj["cells"]:
                key = (int(entry["row"]), int(entry["col"]))
                cells[key] = {
                    int(l): float(parse_rational(c) if isinstance(c, str) else c)
                    for l, c in entry["coeffs"].items()
                }
            return SdpProblem(
                side=int(obj["side"]),
                y_dim=int(obj["yDim"]),
                cells=cells,
                objective={
                    int(l): float(parse_rational(c) if isinstance(c, str) else c)
                    for l, c in obj.get("objective", {}).items()
                },
                fixed={
                    int(l): float(parse_rational(c) if isinstance(c, str) else c)
                    for l, c in obj.get("fixed", {"0": 1.0}).items()
                },
                y_labels=obj.get("labels"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"invalid SDP problem JSON: {exc}") from exc

    @staticmethod
    def from_file(path: str) -> "SdpProblem":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return SdpProblem.from_json(json.load(handle))
        except OSError as exc:
            raise InputError(f"cannot read SDP file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from exc


def build_theta_sdp(
    template: MomentTemplate, objective: Mapping[Monomial, object]
) -> SdpProblem:
    """Level-k theta-body relaxation of maximizing a linear polynomial.

    The objective is a sparse linear polynomial over the ambient variables
    (constant terms allowed).  When the template carries a ring whose
    degree-one basis slice differs from {1, x1, ..., xn}, the objective is
    rewritten through the ring's normal form first, so it always lands on
    y-coordinates of degree <= 1.
    """
    if not objective:
        raise InputError("objective must not be empty")
    for m in objective:
        if not isinstance(m, Monomial):
            raise InputError("objective keys must be Monomial instances")
        if m.dim != template.ambient_dim:
            raise InputError(
                f"objective monomial in {m.dim} variables, template has "
                f"{template.ambient_dim}"
            )
        if m.degree > 1:
            raise InputError("theta-body objectives must be linear")

    coeffs: Dict[int, float] = {}
    if template.ring is not None:
        nf = template.ring.normal_form(dict(objective))
        for l, c in nf.items():
            if l >= template.y_dim:
                raise AssertionError("linear objective escaped the y-basis")
            coeffs[l] = coeffs.get(l, 0.0) + float(c)
    else:
        for m, raw in objective.items():
            c = float(parse_rational(raw) if not isinstance(raw, float) else raw)
            if m.degree == 0:
                coeffs[0] = coeffs.get(0, 0.0) + c
                continue
            var = next(i + 1 for i, e in enumerate(m.exponents) if e)
            l = template.linear_index.get(var)
            if l is None:
                raise InputError(f"variable x{var} has no y-coordinate")
            coeffs[l] = coeffs.get(l, 0.0) + c

    cells = {
        key: {l: float(c) for l, c in vec.items()}
        for key, vec in template.cells.items()
    }
    return SdpProblem(
        side=template.side,
        y_dim=template.y_dim,
        cells=cells,
        objective=coeffs,
        fixed={0: 1.0},
        y_labels=list(template.y_labels),
    )


def orbit_problem(
    problem: SdpProblem, orbit: Sequence[int]
) -> Tuple[SdpProblem, Callable[[Sequence[float]], List[float]]]:
    """The SDP restricted to y constant on orbits of its coordinates, and
    the map from its solution back to the full y.

    orbit[l] numbers the orbit o of coordinate l (0 .. count-1).  The
    reduced problem has one coordinate z_o per orbit, with y_l =
    z_o / sqrt(|o|): F_o = sum_{l in o} F_l / sqrt(|o|), and likewise c_o.
    The returned function expands a reduced z to that y.  Pinned
    coordinates must be alone in their orbit.  The identity map
    (orbit[l] = l) gives a problem equal to the input.
    """
    if len(orbit) != problem.y_dim:
        raise InputError(f"{len(orbit)} orbit numbers for {problem.y_dim} coordinates")
    size = Counter(orbit)
    if any(size[orbit[l]] != 1 for l in problem.fixed):
        raise InputError("a pinned coordinate shares its orbit")
    scale = [1.0 / math.sqrt(size[o]) for o in orbit]

    def reduce(vec: Mapping[int, float]) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for l, c in vec.items():
            out[orbit[l]] = out.get(orbit[l], 0.0) + c * scale[l]
        return out

    labels = None
    if problem.y_labels is not None:
        first = {}
        for l, o in enumerate(orbit):
            first.setdefault(o, problem.y_labels[l])
        labels = [first[o] for o in range(len(size))]
    reduced = SdpProblem(
        side=problem.side,
        y_dim=len(size),
        cells={key: reduce(vec) for key, vec in problem.cells.items()},
        objective=reduce(problem.objective),
        fixed={orbit[l]: v for l, v in problem.fixed.items()},
        y_labels=labels,
    )
    return reduced, lambda z: [z[o] * scale[l] for l, o in enumerate(orbit)]

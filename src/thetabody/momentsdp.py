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
construction rather than by bookkeeping.  Templates built from combinatorial
set systems (stable sets, cut-contained edge sets) use the same class with
unit-vector cells and no ring attached.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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


def build_moment_template(ring: QuotientRing, k: int) -> MomentTemplate:
    """Level-k moment template of a point-set quotient ring.

    Rows are the basis elements of degree <= k; y-coordinates are the basis
    elements of degree <= 2k (all of them when 2k exceeds the top degree).
    """
    if k < 1:
        raise InputError("moment level must be >= 1")

    row_basis = ring.indices_up_to_degree(k)
    y_basis = ring.indices_up_to_degree(2 * k)
    # both slices are prefixes of the degree-sorted basis
    assert row_basis == list(range(len(row_basis)))
    assert y_basis == list(range(len(y_basis)))
    y_dim = len(y_basis)

    products: Dict[Monomial, Cell] = {}
    cells: Dict[Tuple[int, int], Cell] = {}
    for a, i in enumerate(row_basis):
        for j in row_basis[a:]:
            product = ring.basis[i] * ring.basis[j]
            vec = products.get(product)
            if vec is None:
                vec = dict(ring.product_normal_form(i, j))
                if any(l >= y_dim for l in vec):
                    raise AssertionError(
                        "normal form of a degree-<=2k product escaped B_2k"
                    )
                products[product] = vec
            cells[(i, j)] = vec

    labels = [str(ring.basis[l]) for l in y_basis]
    linear = {
        v: ring.basis_index(Monomial.variable(v, ring.dim))
        for v in range(1, ring.dim + 1)
        if ring.basis_index(Monomial.variable(v, ring.dim)) is not None
    }
    return MomentTemplate(
        level=k,
        ambient_dim=ring.dim,
        row_indices=row_basis,
        row_labels=[str(ring.basis[l]) for l in row_basis],
        y_dim=y_dim,
        y_labels=labels,
        cells=cells,
        ring=ring,
        linear_index={v: l for v, l in linear.items() if l < y_dim},
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

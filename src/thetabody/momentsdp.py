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
unit-vector or zero cells) with no ring attached.  build_theta_sdp is the one
map from a template to the reduced float SDP: in the same pass it restricts y
to be constant on given orbits of its coordinates, which combopt finds from
graph symmetry.

This module is the one door to the solver: it holds SdpProblem, the names of
the five statuses and solve, which imports sdpsolve, and with it numpy, only
when called.  Code that only builds, checks or reports on an SDP runs without
numpy.  SolverOptions lives in the module options and is re-exported here.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError
from .exactalg import (
    Monomial,
    QuotientRing,
    _Record,
    format_rational,
    parse_decimal,
    parse_integer,
    to_float,
)
from .options import SolverOptions

if TYPE_CHECKING:
    from .sdpsolve import SdpSolution

Cell = Dict[int, Fraction]

# The solver's statuses; one in CONCLUSIVE comes with an optimum.
OPTIMAL = "Optimal"
NEAR_OPTIMAL = "NearOptimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITER_LIMIT = "IterLimit"
CONCLUSIVE = (OPTIMAL, NEAR_OPTIMAL)


class MomentTemplate(_Record):
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

    _fields = ("level", "ambient_dim", "row_indices", "row_labels", "y_dim", "y_labels",
               "cells", "linear_index")
    _optional = ("ring",)

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
    k = parse_integer(k, "level", 1)
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
    import numpy as np

    ydense = np.asarray([float(v) for v in y])
    matrix = np.zeros((side, side))
    for (i, j), vec in template.cells.items():
        value = sum(float(c) * ydense[l] for l, c in vec.items())
        matrix[i, j] = value
        matrix[j, i] = value
    return matrix


class SdpProblem:
    """max <objective, y> s.t. the affine symmetric matrix M(y) is PSD.

    cells maps (i, j), i <= j, to sparse {y-index: coefficient}; `fixed`
    pins coordinates (always at least y_0 = 1 for moment problems).  This is
    the float layer handed to the interior-point solver.  One pass reads
    all keys by exactalg's integer rule (0.0 is 0; 0.5 or True is refused)
    and checks every coefficient finite; dicts keyed by ints are kept.
    """

    def __init__(self, side: int, y_dim: int, cells: Dict[Tuple[int, int], Dict[int, float]],
                 objective: Dict[int, float], fixed: Dict[int, float],
                 y_labels: Optional[List[str]] = None):
        side, y_dim = parse_integer(side, "side", 1), parse_integer(y_dim, "yDim", 0)
        ints, not_cell = True, object()  # not_cell keys the objective and the fixed values
        for key, vec in itertools.chain(cells.items(), ((not_cell, objective), (not_cell, fixed))):
            if key is not not_cell:
                i, j = key
                if type(i) is not int or type(j) is not int:
                    ints = False
                    i, j = parse_integer(i, "a cell's row"), parse_integer(j, "a cell's col")
                if not 0 <= i <= j < side:
                    raise InputError(f"cell ({i},{j}) outside matrix")
            for l, c in vec.items():
                if type(l) is not int:
                    ints = False
                    l = parse_integer(l, "a y-index")
                if not 0 <= l < y_dim:
                    raise InputError(f"unknown y-index {l}" if key is not_cell
                                     else f"cell ({i},{j}) uses unknown y[{l}]")
                if not math.isfinite(c):
                    raise InputError("SDP coefficients must be finite (no NaN or infinity)")
        if not ints:  # every key passed the rule above, so int() reads it
            cells = {(int(i), int(j)): {int(l): c for l, c in vec.items()}
                     for (i, j), vec in cells.items()}
            objective, fixed = ({int(l): c for l, c in v.items()} for v in (objective, fixed))
        self.side, self.y_dim, self.y_labels = side, y_dim, y_labels
        self.cells, self.objective, self.fixed = cells, objective, fixed

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

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
        def vector(coeffs) -> Dict[int, float]:
            return {parse_decimal(l, "a y-index"): to_float(c) for l, c in coeffs.items()}

        try:
            cells = {}
            for entry in obj["cells"]:
                key = (
                    parse_integer(entry["row"], "a cell's row"),
                    parse_integer(entry["col"], "a cell's col"),
                )
                if key in cells:
                    raise InputError(f"cell {key} is listed twice")
                cells[key] = vector(entry["coeffs"])
            return SdpProblem(
                side=obj["side"],
                y_dim=obj["yDim"],
                cells=cells,
                objective=vector(obj.get("objective", {})),
                fixed=vector(obj.get("fixed", {"0": 1.0})),
                y_labels=obj.get("labels"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"invalid SDP problem JSON: {exc}") from exc


def solve(problem: SdpProblem, options: Optional[SolverOptions] = None) -> SdpSolution:
    """sdpsolve.solve, looked up at each call: sdpsolve loads numpy, which
    building, reading or refusing a problem never needs."""
    from . import sdpsolve

    return sdpsolve.solve(problem, options)


def orbit_scales(orbit: Sequence[int]) -> List[float]:
    """1/sqrt(|o|) for each coordinate l, o = orbit[l] its orbit: the
    reduced coordinate z_o stands for y_l = z_o * scale[l]."""
    size = Counter(orbit)
    return [1.0 / math.sqrt(size[o]) for o in orbit]


def build_theta_sdp(
    template: MomentTemplate,
    objective: Mapping[Monomial, object],
    orbit: Optional[Sequence[int]] = None,
) -> SdpProblem:
    """Level-k theta-body relaxation of maximizing a linear polynomial.

    The objective is a sparse linear polynomial over the ambient variables
    (constant terms allowed).  When the template carries a ring whose
    degree-one basis slice differs from {1, x1, ..., xn}, the objective is
    rewritten through the ring's normal form first, so it always lands on
    y-coordinates of degree <= 1.

    With orbit, orbit[l] numbering the orbit o of coordinate l (0 ..
    count-1) and y_0 alone in its orbit, the problem has one coordinate z_o
    per orbit, y_l = z_o / sqrt(|o|) (orbit_scales): F_o = sum_{l in o}
    F_l / sqrt(|o|), and likewise c_o.  orbit=None is the identity.
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
            coeffs[l] = coeffs.get(l, 0.0) + to_float(c)
    else:
        for m, raw in objective.items():
            c = to_float(raw)
            if m.degree == 0:
                coeffs[0] = coeffs.get(0, 0.0) + c
                continue
            var = next(i + 1 for i, e in enumerate(m.exponents) if e)
            l = template.linear_index.get(var)
            if l is None:
                raise InputError(f"variable x{var} has no y-coordinate")
            coeffs[l] = coeffs.get(l, 0.0) + c

    if orbit is None:
        orbit = range(template.y_dim)
    if len(orbit) != template.y_dim or orbit.count(orbit[0]) != 1:
        raise InputError("orbits need one number per y-coordinate, y_0 alone in its orbit")
    scale = orbit_scales(orbit)
    first = {o: l for l, o in reversed(list(enumerate(orbit)))}  # least coordinate per orbit

    def reduce(vec: Mapping[int, object]) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for l, c in vec.items():
            out[orbit[l]] = out.get(orbit[l], 0.0) + to_float(c) * scale[l]
        return out

    # each distinct template vector is reduced once, for all the cells it is in
    distinct = {id(vec): vec for vec in template.cells.values()}
    reduced = {i: reduce(vec) for i, vec in distinct.items()}
    return SdpProblem(
        side=template.side,
        y_dim=len(first),
        cells={key: reduced[id(vec)] for key, vec in template.cells.items()},
        objective=reduce(coeffs),
        fixed={orbit[0]: 1.0},
        y_labels=[template.y_labels[first[o]] for o in range(len(first))],
    )

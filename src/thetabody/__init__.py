"""thetabody: theta-body SDP relaxations of convex hulls of finite varieties.

The package is organized as a pipeline:

- ``exactalg``   exact rational groundwork: monomials, point sets, vanishing-
                 ideal quotient rings via evaluation/interpolation.
- ``momentsdp``  symbolic moment-matrix templates over a quotient ring or a
                 combinatorial basis, and their instantiation as SDP data.
- ``sdpsolve``   a dense primal-dual interior-point SDP solver.
- ``combopt``    stable-set and cut relaxations of graphs, built on
                 combinatorial bases instead of a quotient ring.
- ``geomexact``  exact convex-hull geometry: facet enumeration, two-level
                 certificates, 0/1 classification, down-closed analysis.
- ``quadrics``   degree-two slices of vanishing ideals: convex-quadric
                 certificates and first-relaxation membership.
- ``cli``        the ``thetabody`` command-line entry point.
"""

__version__ = "0.1.0"

from .errors import InputError, ResourceLimitError, SolverError, ThetaBodyError
from .exactalg import (
    Monomial,
    PointSet,
    QuotientRing,
    buchberger_moller,
    format_rational,
    parse_monomial,
    parse_polynomial,
    parse_rational,
    rational_rref,
)
from .momentsdp import (
    MomentTemplate,
    SdpProblem,
    assemble,
    build_moment_template,
    build_theta_sdp,
)
from .sdpsolve import SdpSolution, SolverOptions, solve
from .combopt import (
    CombBasis,
    Graph,
    ThetaResult,
    cut_theta,
    enumerate_odd_cycle_free,
    enumerate_stable_sets,
    is_bipartite,
    moment_template,
    parse_weights,
    stable_set_theta,
)
from .geomexact import (
    DownClosedReport,
    ExactnessReport,
    FacetInequality,
    FacetVertexReport,
    ZeroOneClass,
    affine_dimension,
    classify_01,
    down_closed_analysis,
    facet_vertex_report,
    facets,
    is_exact,
    theta_rank_upper_bound,
    vertex_indices,
)
from .quadrics import (
    ConvexQuadricReport,
    MembershipReport,
    Quadric,
    QuadricSpace,
    has_convex_quadric,
    quadric_space_from_generators,
    quadric_space_from_points,
    th1_membership,
)

__all__ = [
    "__version__",
    # errors
    "ThetaBodyError",
    "InputError",
    "ResourceLimitError",
    "SolverError",
    # exact rational groundwork
    "Monomial",
    "PointSet",
    "QuotientRing",
    "buchberger_moller",
    "parse_rational",
    "format_rational",
    "parse_monomial",
    "parse_polynomial",
    "rational_rref",
    # moment templates and SDP data
    "MomentTemplate",
    "build_moment_template",
    "assemble",
    "SdpProblem",
    "build_theta_sdp",
    # solver
    "SolverOptions",
    "SdpSolution",
    "solve",
    # graph models
    "Graph",
    "CombBasis",
    "enumerate_stable_sets",
    "enumerate_odd_cycle_free",
    "is_bipartite",
    "moment_template",
    "ThetaResult",
    "stable_set_theta",
    "cut_theta",
    "parse_weights",
    # exact geometry
    "FacetInequality",
    "ExactnessReport",
    "facets",
    "is_exact",
    "theta_rank_upper_bound",
    "vertex_indices",
    "FacetVertexReport",
    "facet_vertex_report",
    "ZeroOneClass",
    "classify_01",
    "DownClosedReport",
    "down_closed_analysis",
    "affine_dimension",
    # quadric slices
    "Quadric",
    "QuadricSpace",
    "quadric_space_from_points",
    "quadric_space_from_generators",
    "ConvexQuadricReport",
    "has_convex_quadric",
    "MembershipReport",
    "th1_membership",
]
